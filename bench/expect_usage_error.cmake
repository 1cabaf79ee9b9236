# cmake -DBIN=<bench binary> -DFLAG=<flag> [-DWANT=<regex>]
#       -P expect_usage_error.cmake
#
# Runs BIN FLAG and requires the usage-error contract: exit code 2 and
# exactly one stderr line: `error: unknown flag FLAG`, or `error: WANT`
# when WANT is given, with no internal check site in between. A crash
# reports a signal, not 2, and fails here.
if(NOT DEFINED WANT)
  # An unknown flag is named on its own, with no internal check site.
  set(PATTERN "^error: unknown flag ${FLAG}\n$")
else()
  set(PATTERN "^error: ${WANT}\n$")
endif()
execute_process(COMMAND "${BIN}" "${FLAG}"
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc STREQUAL "2")
  message(FATAL_ERROR "${BIN} ${FLAG}: exit '${rc}', want 2\nstderr: ${err}")
endif()
if(NOT err MATCHES "${PATTERN}")
  message(FATAL_ERROR "${BIN} ${FLAG}: unexpected stderr: ${err}")
endif()
