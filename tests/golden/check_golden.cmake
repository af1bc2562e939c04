# Runs ddpsim with one golden case's arguments and byte-compares its
# stdout against the committed output.
#
# Usage:
#   cmake -DDDPSIM=<path> -DCASE=<tests/golden/NAME> [-DACTUAL=<path>]
#         [-DREGEN=ON] -P check_golden.cmake
#
# CASE names the case without extension: NAME.args holds the ddpsim
# arguments (whitespace-separated, no quoting), NAME.out the expected
# stdout. The two host-timing JSON fields, wall_seconds and
# events_per_sec, are stripped before the compare; everything else a
# run prints is simulated and must be byte-identical. REGEN=ON rewrites
# NAME.out instead of comparing (tools/regen_golden.sh). On a mismatch
# the actual output is written to ACTUAL for diffing.

if(NOT DEFINED DDPSIM OR NOT DEFINED CASE)
    message(FATAL_ERROR "need -DDDPSIM=<path> and -DCASE=<golden case>")
endif()

file(READ ${CASE}.args raw)
string(STRIP "${raw}" raw)
separate_arguments(args UNIX_COMMAND "${raw}")

execute_process(
    COMMAND ${DDPSIM} ${args}
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "ddpsim ${raw} exited ${rc}:\n${err}")
endif()
string(REGEX REPLACE "[^\n]*\"(wall_seconds|events_per_sec)\": [^\n]*\n"
       "" out "${out}")

if(REGEN)
    file(WRITE ${CASE}.out "${out}")
    return()
endif()

file(READ ${CASE}.out want)
if(NOT out STREQUAL want)
    if(NOT DEFINED ACTUAL)
        set(ACTUAL ${CASE}.actual)
    endif()
    file(WRITE ${ACTUAL} "${out}")
    message(FATAL_ERROR
        "output of 'ddpsim ${raw}' differs from ${CASE}.out\n"
        "actual output: ${ACTUAL}\n"
        "If the change is intended, run tools/regen_golden.sh and say "
        "in CHANGES.md which golden changed and why.")
endif()
