# Golden-output check, run as `cmake -P`. Copies INPUTS into a fresh
# WORKDIR, runs COMMAND there and requires its exit code to be EXIT
# (default 0) and its stdout to equal the file STDOUT byte for byte. With
# WROTE and WROTE_GOLDEN, the file WROTE that the command leaves in WORKDIR
# must equal WROTE_GOLDEN too. List arguments (INPUTS, COMMAND) separate
# their items with '|', because add_test splits arguments on ';'.
foreach(var WORKDIR COMMAND STDOUT)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "run_golden.cmake needs -D${var}=...")
  endif()
endforeach()
if(NOT DEFINED EXIT)
  set(EXIT 0)
endif()

file(REMOVE_RECURSE "${WORKDIR}")
file(MAKE_DIRECTORY "${WORKDIR}")
string(REPLACE "|" ";" inputs "${INPUTS}")
file(COPY ${inputs} DESTINATION "${WORKDIR}")

string(REPLACE "|" ";" command "${COMMAND}")
execute_process(COMMAND ${command}
                WORKING_DIRECTORY "${WORKDIR}"
                OUTPUT_FILE "${WORKDIR}/stdout.txt"
                RESULT_VARIABLE rc)
if(NOT rc STREQUAL "${EXIT}")
  message(FATAL_ERROR "exit code ${rc}, expected ${EXIT}")
endif()

function(require_same actual golden)
  execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                          "${actual}" "${golden}"
                  RESULT_VARIABLE differs)
  if(differs)
    file(READ "${actual}" text)
    message(FATAL_ERROR "${actual} differs from ${golden}:\n${text}")
  endif()
endfunction()

require_same("${WORKDIR}/stdout.txt" "${STDOUT}")
if(DEFINED WROTE)
  require_same("${WORKDIR}/${WROTE}" "${WROTE_GOLDEN}")
endif()
