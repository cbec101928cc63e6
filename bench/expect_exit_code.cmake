# Runs a command and asserts the EXACT exit code — ctest's WILL_FAIL can
# only assert "nonzero", but several of our contracts distinguish codes:
# the schema checker's exit 1 (schema violation) vs exit 3 (artifact
# written by a newer bench build), and the CLI's exit 2 (usage error,
# e.g. a malformed numeric flag).
#
# Usage:
#   cmake -DCHECKER=<path> -DARTIFACT=<path> -DEXPECTED=<code> \
#         -P expect_exit_code.cmake
#   cmake -DCHECKER=<path> "-DARGS=arg1;arg2;..." -DEXPECTED=<code> \
#         -P expect_exit_code.cmake
#
# ARTIFACT is the original single-argument form; ARGS is a CMake list of
# arbitrary arguments. In add_test, keep the list in one quoted argument
# with plain semicolons ("-DARGS=a;b"): an escaped "\;" survives into the
# value and the checker receives "a;b" as a single argument.
# An optional -DEXPECTED_OUTPUT=<regex> must also match stdout + stderr.

if(NOT DEFINED CHECKER OR NOT DEFINED EXPECTED)
  message(FATAL_ERROR
    "expect_exit_code.cmake needs -DCHECKER and -DEXPECTED")
endif()
if(NOT DEFINED ARGS)
  if(NOT DEFINED ARTIFACT)
    message(FATAL_ERROR
      "expect_exit_code.cmake needs -DARTIFACT or -DARGS")
  endif()
  set(ARGS ${ARTIFACT})
endif()

execute_process(
  COMMAND ${CHECKER} ${ARGS}
  RESULT_VARIABLE result
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)

if(NOT result EQUAL ${EXPECTED})
  message(FATAL_ERROR
    "expected exit ${EXPECTED} from ${CHECKER} ${ARGS}, got "
    "'${result}'\nstdout:\n${out}\nstderr:\n${err}")
endif()
if(DEFINED EXPECTED_OUTPUT AND NOT "${out}${err}" MATCHES "${EXPECTED_OUTPUT}")
  message(FATAL_ERROR
    "output of ${CHECKER} ${ARGS} does not match '${EXPECTED_OUTPUT}'"
    "\nstdout:\n${out}\nstderr:\n${err}")
endif()
