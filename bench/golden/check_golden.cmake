# Golden check for a paper program: run it and require its table (the
# output from the first "===" line on) to match the committed golden
# exactly. The programs are deterministic: they print simulated cycle
# counts, ratios of them and counts derived from the sources.
#
#   cmake -DBENCH=<path to program> -DGOLDEN=<program>.txt \
#         -P check_golden.cmake
get_filename_component(name "${BENCH}" NAME)
execute_process(COMMAND "${BENCH}"
                OUTPUT_VARIABLE out
                ERROR_QUIET
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${name} exited with ${rc}")
endif()

string(FIND "${out}" "===" at)
if(at EQUAL -1)
    message(FATAL_ERROR "${name} printed no '===' table header")
endif()
# Back up to the start of the header line.
string(SUBSTRING "${out}" 0 ${at} before)
string(FIND "${before}" "\n" nl REVERSE)
math(EXPR start "${nl} + 1")
string(SUBSTRING "${out}" ${start} -1 table)

file(READ "${GOLDEN}" golden)
if(NOT table STREQUAL golden)
    message(FATAL_ERROR
        "${name} output differs from ${GOLDEN}\n"
        "--- golden\n${golden}\n--- actual\n${table}")
endif()
message(STATUS "${name} matches ${GOLDEN}")
