# Golden-output check, run as `cmake -P`. Copies INPUTS into a fresh
# WORKDIR, runs COMMAND there and requires its exit code to be EXIT
# (default 0) and its stdout to equal the file STDOUT byte for byte. With
# WROTE and WROTE_GOLDEN, the file WROTE that the command leaves in WORKDIR
# must equal WROTE_GOLDEN too. With WROTE_SHA256, a list of file=sha256
# items, each named file the command leaves in WORKDIR must have that
# SHA-256. List arguments (INPUTS, COMMAND, WROTE_SHA256) separate their
# items with '|', because add_test splits arguments on ';'.
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
string(REPLACE "|" ";" wrote_sha256 "${WROTE_SHA256}")
foreach(item IN LISTS wrote_sha256)
  string(REGEX MATCH "^(.+)=([0-9a-f]+)$" matched "${item}")
  if(NOT matched)
    message(FATAL_ERROR "WROTE_SHA256 item '${item}' is not file=sha256")
  endif()
  set(wrote "${CMAKE_MATCH_1}")
  set(expected "${CMAKE_MATCH_2}")
  if(NOT EXISTS "${WORKDIR}/${wrote}")
    message(FATAL_ERROR "${wrote} was not written")
  endif()
  file(SHA256 "${WORKDIR}/${wrote}" actual)
  if(NOT actual STREQUAL expected)
    message(FATAL_ERROR
            "${wrote}: SHA-256 ${actual}, expected ${expected}")
  endif()
endforeach()
