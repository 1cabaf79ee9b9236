# cmake -DBIN=<bench binary> -DDIR=<scratch dir> -P expect_refused_resume.cmake
#
# Runs BIN once with a checkpoint, flips one byte of that checkpoint, then
# resumes from it. The resume must be refused the way `ritcs` refuses it:
# exit code 2 and an `error:` line naming the checkpoint, never an abort.
set(ARGS --trials=4 --points=2 --scale=50 --threads=2 --out=none)
set(CKPT "${DIR}/refused_resume.ckpt")
file(REMOVE "${CKPT}")
file(MAKE_DIRECTORY "${DIR}")
execute_process(COMMAND "${BIN}" ${ARGS} --checkpoint=${CKPT}
  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT rc STREQUAL "0" OR NOT EXISTS "${CKPT}")
  message(FATAL_ERROR "${BIN}: checkpointed run exit '${rc}'\nstderr: ${err}")
endif()
# Flip the first byte of the header (`r` -> `s`): the checksum no longer
# matches.
file(READ "${CKPT}" body)
string(SUBSTRING "${body}" 1 -1 tail)
file(WRITE "${CKPT}" "s${tail}")
execute_process(COMMAND "${BIN}" ${ARGS} --checkpoint=${CKPT} --resume=true
  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT rc STREQUAL "2")
  message(FATAL_ERROR "${BIN}: resume from a corrupt checkpoint: exit '${rc}', "
    "want 2\nstderr: ${err}")
endif()
if(NOT err MATCHES "(^|\n)error: [^\n]*refused_resume\\.ckpt[^\n]*\n$")
  message(FATAL_ERROR "${BIN}: want one final `error:` line naming the "
    "checkpoint, got stderr: ${err}")
endif()
if(err MATCHES "terminate called")
  message(FATAL_ERROR "${BIN}: aborted\nstderr: ${err}")
endif()
