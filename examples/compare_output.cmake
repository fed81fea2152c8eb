# Runs PROGRAM on INPUT inside DIR (so a path the program echoes stays
# relative) and fails unless its stdout equals the committed EXPECTED file
# byte for byte:
#   cmake -DPROGRAM=<exe> -DDIR=<dir> -DINPUT=<file in dir>
#         -DEXPECTED=<file> -P compare_output.cmake
execute_process(COMMAND ${PROGRAM} ${INPUT}
                WORKING_DIRECTORY ${DIR}
                OUTPUT_VARIABLE actual
                RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${PROGRAM} ${INPUT} exited with ${status}")
endif()
file(READ ${EXPECTED} expected)
if(NOT actual STREQUAL expected)
  message(FATAL_ERROR
          "stdout of ${PROGRAM} ${INPUT} differs from ${EXPECTED}.\n"
          "--- actual ---\n${actual}--- expected ---\n${expected}")
endif()
