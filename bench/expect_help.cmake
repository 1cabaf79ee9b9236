# cmake -DBIN=<bench binary> -P expect_help.cmake
#
# Runs BIN --help and requires the help contract: exit code 0, a usage
# line and the recognised flags (--trials among them) on stdout, and
# nothing on stderr.
execute_process(COMMAND "${BIN}" --help
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc STREQUAL "0")
  message(FATAL_ERROR "${BIN} --help: exit '${rc}', want 0\nstderr: ${err}")
endif()
if(NOT out MATCHES "^usage: [^\n]+\nflags:\n(  --[a-z-]+\n)+$" OR
   NOT out MATCHES "\n  --trials\n" OR NOT out MATCHES "\n  --help\n")
  message(FATAL_ERROR "${BIN} --help: unexpected stdout: ${out}")
endif()
if(NOT err STREQUAL "")
  message(FATAL_ERROR "${BIN} --help: unexpected stderr: ${err}")
endif()
