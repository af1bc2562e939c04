# Byte-compares ddpsim sweep output between two cluster configurations
# that must be observationally identical:
#
#   MODE=batching   default doorbell-coalesced wire delivery
#                   vs --no-batched-delivery (one event per message)
#
# Usage:
#   cmake -DDDPSIM=<path> -DMODE=batching -P delivery_equivalence.cmake
#
# This is a pure mechanism swap: ring-drain batching preserves
# per-message (when, seq) delivery keys and per-message charging
# (DESIGN.md, "Doorbell-coalesced delivery"). The sweep runs every
# model over a lossy fabric — drops, reordering, duplicates, and the
# retransmit traffic they provoke — because loss handling is where the
# ring (fault injection per message, retransmit re-entry) is most
# likely to diverge from the unbatched path. CSV carries no
# host-timing fields, so the comparison is exact.

if(NOT DEFINED DDPSIM OR NOT DEFINED MODE)
    message(FATAL_ERROR
        "need -DDDPSIM=<path> and -DMODE=batching")
endif()

set(common_args
    --all-models --servers 3 --clients-per-server 4 --keys 2000
    --warmup-us 100 --measure-us 400
    --drop-rate 0.03 --reorder-rate 0.03 --dup-rate 0.01
    --format csv --jobs 4)

if(MODE STREQUAL "batching")
    set(variant_a_args ${common_args})
    set(variant_b_args --no-batched-delivery ${common_args})
    set(what "--no-batched-delivery")
else()
    message(FATAL_ERROR "unknown MODE '${MODE}'")
endif()

foreach(variant a b)
    execute_process(
        COMMAND ${DDPSIM} ${variant_${variant}_args}
        OUTPUT_VARIABLE out_${variant}
        ERROR_VARIABLE err_${variant}
        RESULT_VARIABLE rc_${variant})
    if(NOT rc_${variant} EQUAL 0)
        message(FATAL_ERROR
            "ddpsim variant ${variant} failed (rc=${rc_${variant}}):\n"
            "${err_${variant}}")
    endif()
endforeach()

if(NOT out_a STREQUAL out_b)
    message(FATAL_ERROR
        "MODE=${MODE}: ${what} stdout differs from the default "
        "configuration — the mechanism swap changed observable "
        "behavior")
endif()

string(LENGTH "${out_a}" bytes)
message(STATUS "MODE=${MODE}: default and ${what} stdout identical "
               "(${bytes} bytes)")
