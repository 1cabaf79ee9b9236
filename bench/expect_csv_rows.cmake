# cmake -DBIN=<bench binary> -DDIR=<scratch dir> "-DSTEMS=<stem;...>"
#       -DROWS=<n> "-DARGS=<flag;...>" -P expect_csv_rows.cmake
#
# Runs BIN ARGS --out=DIR/out from the empty directory DIR/cwd and requires
# exit code 0, a CSV DIR/out/<stem>.csv of exactly ROWS data rows below its
# header for every stem, and nothing written under the working directory.
file(REMOVE_RECURSE "${DIR}")
file(MAKE_DIRECTORY "${DIR}/cwd")
execute_process(COMMAND "${BIN}" ${ARGS} "--out=${DIR}/out"
  WORKING_DIRECTORY "${DIR}/cwd"
  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT rc STREQUAL "0")
  message(FATAL_ERROR "${BIN} ${ARGS}: exit '${rc}', want 0\nstderr: ${err}")
endif()
foreach(stem ${STEMS})
  set(csv "${DIR}/out/${stem}.csv")
  if(NOT EXISTS "${csv}")
    message(FATAL_ERROR "${BIN} ${ARGS}: no ${csv}")
  endif()
  file(STRINGS "${csv}" lines)
  list(LENGTH lines count)
  math(EXPR rows "${count} - 1")
  if(NOT rows EQUAL ROWS)
    message(FATAL_ERROR "${BIN} ${ARGS}: ${rows} rows in ${csv}, want ${ROWS}")
  endif()
endforeach()
file(GLOB stray "${DIR}/cwd/*")
if(stray)
  message(FATAL_ERROR "${BIN} ${ARGS}: wrote outside --out: ${stray}")
endif()
