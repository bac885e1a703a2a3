# `stethoscope replay` on examples/c4_q1 with the first two events' emit
# times at INT64_MIN and INT64_MAX, run as `cmake -P`. Every gap, span and
# offset the replay, the timeline, the memory curve and the utilization
# report take between those times must saturate, not overflow: the command
# exits 0, and under the asan-ubsan preset a UBSan finding would abort it.
# Needs -DSTETHOSCOPE=<binary> -DEXAMPLES=<examples dir> -DWORKDIR=<dir>.
foreach(var STETHOSCOPE EXAMPLES WORKDIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "run_wild_times.cmake needs -D${var}=...")
  endif()
endforeach()

file(REMOVE_RECURSE "${WORKDIR}")
file(MAKE_DIRECTORY "${WORKDIR}")
file(COPY "${EXAMPLES}/c4_q1.dot" DESTINATION "${WORKDIR}")
file(READ "${EXAMPLES}/c4_q1.trace" trace)
string(REGEX REPLACE "^\\[ 0,\t[0-9]+," "[ 0,\t-9223372036854775808,"
       wild "${trace}")
string(REGEX REPLACE "\n\\[ 1,\t[0-9]+," "\n[ 1,\t9223372036854775807,"
       wild "${wild}")
foreach(time -9223372036854775808 9223372036854775807)
  string(FIND "${wild}" ",\t${time},\t" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "emit time ${time} was not written into the trace")
  endif()
endforeach()
file(WRITE "${WORKDIR}/c4_q1.trace" "${wild}")

execute_process(COMMAND "${STETHOSCOPE}" replay c4_q1.dot c4_q1.trace
                WORKING_DIRECTORY "${WORKDIR}"
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err
                RESULT_VARIABLE rc)
if(NOT rc STREQUAL "0")
  message(FATAL_ERROR "replay exited ${rc}:\n${out}\n${err}")
endif()
foreach(svg view timeline memory)
  if(NOT EXISTS "${WORKDIR}/c4_q1.trace.${svg}.svg")
    message(FATAL_ERROR "c4_q1.trace.${svg}.svg was not written")
  endif()
endforeach()
