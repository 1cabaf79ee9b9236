# cmake -DBIN=<bench binary> "-DARGS=<flag;...>" "-DPATTERN=<regex>"
#       -DCOUNT=<n> -P expect_stdout_matches.cmake
#
# Runs BIN ARGS --out=none and requires exit code 0 and
# exactly COUNT matches of PATTERN on stdout.
execute_process(COMMAND "${BIN}" ${ARGS} --out=none
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc STREQUAL "0")
  message(FATAL_ERROR "${BIN} ${ARGS}: exit '${rc}', want 0\nstderr: ${err}")
endif()
string(REGEX MATCHALL "${PATTERN}" matches "${out}")
list(LENGTH matches count)
if(NOT count EQUAL COUNT)
  message(FATAL_ERROR "${BIN} ${ARGS}: ${count} matches of '${PATTERN}' "
    "on stdout, want ${COUNT}\nstdout: ${out}")
endif()
