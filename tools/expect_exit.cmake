# Runs a command and passes only when it exits with EXPECT_EXIT and its
# stdout+stderr match EXPECT_OUTPUT, so a must-fail test cannot pass on a
# different failure (a missing fixture, a usage error). Tests reach it
# through sgk_expect_exit() in the top-level CMakeLists.txt.
#
#   cmake -DEXPECT_EXIT=1 -DEXPECT_OUTPUT=regex "-DCOMMAND=exe|arg|..."
#         -P expect_exit.cmake
#
# COMMAND separates its words with '|'.
string(REPLACE "|" ";" command "${COMMAND}")
execute_process(COMMAND ${command} RESULT_VARIABLE code
                OUTPUT_VARIABLE output ERROR_VARIABLE output)
message("${output}")
if(NOT code STREQUAL EXPECT_EXIT)
  message(FATAL_ERROR "exit ${code}, expected ${EXPECT_EXIT}")
endif()
if(NOT output MATCHES "${EXPECT_OUTPUT}")
  message(FATAL_ERROR "output does not match '${EXPECT_OUTPUT}'")
endif()
