# Runs BENCH and fails unless its stdout equals the file GOLDEN byte for byte.
# Usage: cmake -DBENCH=<executable> -DGOLDEN=<file> -P compare_stdout.cmake
execute_process(COMMAND "${BENCH}" OUTPUT_VARIABLE out RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BENCH} exited with status ${rc}")
endif()
file(READ "${GOLDEN}" want)
if(NOT "${out}" STREQUAL "${want}")
  message(FATAL_ERROR "stdout of ${BENCH} differs from ${GOLDEN}; got:\n${out}")
endif()
