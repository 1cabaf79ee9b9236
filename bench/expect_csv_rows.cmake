# cmake -DBIN=<bench binary> -DCSV=<path> -DROWS=<n> "-DARGS=<flag;...>"
#       -P expect_csv_rows.cmake
#
# Runs BIN ARGS --csv=CSV --json=none and requires exit code 0 and a CSV
# of exactly ROWS data rows below its header.
file(REMOVE "${CSV}")
execute_process(COMMAND "${BIN}" ${ARGS} "--csv=${CSV}" --json=none
  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT rc STREQUAL "0")
  message(FATAL_ERROR "${BIN} ${ARGS}: exit '${rc}', want 0\nstderr: ${err}")
endif()
file(STRINGS "${CSV}" lines)
list(LENGTH lines count)
math(EXPR rows "${count} - 1")
if(NOT rows EQUAL ROWS)
  message(FATAL_ERROR "${BIN} ${ARGS}: ${rows} CSV rows, want ${ROWS}")
endif()
