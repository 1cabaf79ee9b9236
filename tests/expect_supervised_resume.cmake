# cmake -DBIN=<ritcs> -DCONFIG=<scenario file> -DDIR=<scratch dir>
#       -P expect_supervised_resume.cmake
#
# A supervised `ritcs --mode=run --threads=2` that checkpoints every trial,
# and the same run resumed from that checkpoint, must each print what the
# in-process --threads=2 run prints, apart from the measured runtime rows.
set(ARGS --mode=run --config=${CONFIG} --trials=6 --threads=2)
set(CKPT "${DIR}/supervised.ckpt")
file(REMOVE_RECURSE "${DIR}")
file(MAKE_DIRECTORY "${DIR}")

function(run_ritcs out_var)
  execute_process(COMMAND "${BIN}" ${ARGS} ${ARGN}
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc STREQUAL "0")
    message(FATAL_ERROR "ritcs ${ARGN}: exit '${rc}'\nstderr: ${err}")
  endif()
  string(REGEX REPLACE "[^\n]*runtime_ms[^\n]*\n" "" out "${out}")
  set(${out_var} "${out}" PARENT_SCOPE)
endfunction()

run_ritcs(in_process)
run_ritcs(supervised --supervised --checkpoint=${CKPT} --checkpoint-every=1)
if(NOT EXISTS "${CKPT}")
  message(FATAL_ERROR "supervised run wrote no checkpoint ${CKPT}")
endif()
run_ritcs(resumed --supervised --checkpoint=${CKPT} --checkpoint-every=1
  --resume=true)
if(NOT in_process MATCHES "success rate: ")
  message(FATAL_ERROR "in-process run printed no summary:\n${in_process}")
endif()
if(NOT supervised STREQUAL in_process)
  message(FATAL_ERROR "supervised output differs:\n${supervised}\n"
    "in-process:\n${in_process}")
endif()
if(NOT resumed STREQUAL in_process)
  message(FATAL_ERROR "resumed output differs:\n${resumed}\n"
    "in-process:\n${in_process}")
endif()
