# Malformed-input test driver, run via `cmake -P` from CTest.
#
# Inputs: EXE (binary), ARGS (arguments put before each file, separated
# by ","), FILES (input files, separated by ","), EXIT_CODE.
#
# Runs `EXE ARGS FILE` once per file and requires every run to exit with
# EXIT_CODE. Only then does it print each run's stderr, prefixed with
# the file name, so the calling test's PASS_REGULAR_EXPRESSION matches
# the error text of every case, and a crash (an abort or signal is not
# an exit code) leaves nothing to match.

string(REPLACE "," ";" args "${ARGS}")
string(REPLACE "," ";" files "${FILES}")
set(report "")
foreach(file IN LISTS files)
  execute_process(
    COMMAND ${EXE} ${args} ${file}
    RESULT_VARIABLE result
    OUTPUT_QUIET
    ERROR_VARIABLE stderr)
  if(NOT result STREQUAL "${EXIT_CODE}")
    message(FATAL_ERROR
      "expect_error: ${file}: expected exit ${EXIT_CODE}, got ${result}")
  endif()
  string(APPEND report "${file}: ${stderr}")
endforeach()
message("${report}")
