# cmake -DBIN=<bench binary> -DFLAG=<flag> -P expect_usage_error.cmake
#
# Runs BIN FLAG and requires the usage-error contract: exit code 2 and
# exactly one stderr line `error: ... unknown flag FLAG`. A crash reports a
# signal, not 2, and fails here.
execute_process(COMMAND "${BIN}" "${FLAG}"
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc STREQUAL "2")
  message(FATAL_ERROR "${BIN} ${FLAG}: exit '${rc}', want 2\nstderr: ${err}")
endif()
if(NOT err MATCHES "^error: [^\n]*unknown flag ${FLAG}\n$")
  message(FATAL_ERROR "${BIN} ${FLAG}: unexpected stderr: ${err}")
endif()
