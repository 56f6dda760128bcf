# Table 3 golden check: run table3_micro and require its cycle table (the
# output from the first "===" line on) to match the committed golden
# exactly. Simulated cycle counts are deterministic; only the
# google-benchmark wall-clock rows above the table vary.
#
#   cmake -DBENCH=<path to table3_micro> -DGOLDEN=<table3_micro.txt> \
#         -P check_table3.cmake
execute_process(COMMAND "${BENCH}"
                OUTPUT_VARIABLE out
                ERROR_QUIET
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "table3_micro exited with ${rc}")
endif()

string(FIND "${out}" "===" at)
if(at EQUAL -1)
    message(FATAL_ERROR "table3_micro printed no '===' table header")
endif()
# Back up to the start of the header line.
string(SUBSTRING "${out}" 0 ${at} before)
string(FIND "${before}" "\n" nl REVERSE)
math(EXPR start "${nl} + 1")
string(SUBSTRING "${out}" ${start} -1 table)

file(READ "${GOLDEN}" golden)
if(NOT table STREQUAL golden)
    message(FATAL_ERROR
        "table3_micro cycle table differs from ${GOLDEN}\n"
        "--- golden\n${golden}\n--- actual\n${table}")
endif()
message(STATUS "table3_micro matches golden cycle counts")
