# cmake -DBIN=<bench_micro> -DPYTHON=<python3> -DDIR=<scratch dir>
#       -P expect_json_stdout.cmake
#
# Pipes `BIN --benchmark_format=json` (one quick benchmark, the summary
# written under --out=DIR) into a JSON parser: stdout must be
# google-benchmark's document alone, with the bench's own report on stderr.
file(REMOVE_RECURSE "${DIR}")
execute_process(
  COMMAND "${BIN}" --benchmark_filter=BM_ConsensusRoundDown
    --benchmark_format=json --benchmark_min_time=0.01 "--out=${DIR}"
  COMMAND "${PYTHON}" -c "import json,sys; json.load(sys.stdin)"
  RESULTS_VARIABLE rcs ERROR_VARIABLE err)
if(NOT rcs STREQUAL "0;0")
  message(FATAL_ERROR "exit codes '${rcs}', want 0;0\nstderr: ${err}")
endif()
if(NOT err MATCHES "summary: " OR NOT EXISTS "${DIR}/BENCH_micro.json")
  message(FATAL_ERROR "no summary under ${DIR}: ${err}")
endif()
