# Behaviour fence for `eta2 simulate`: every registered method at seeds 1–5
# on one dataset must print the same stdout and write the same `--out` CSV,
# byte for byte, as when the manifest was recorded. Each (method, seed) run
# is hashed with SHA256 and compared with its line in MANIFEST
# ("<method> <seed> <stdout sha256> <csv sha256>"). A change that only
# restructures code must leave every hash in place.
#
# The CSV is written to a fixed relative name inside WORK_DIR, so the
# closing `wrote fence.csv` line of stdout is the same in every checkout.
#
# Invoked by ctest (see tools/CMakeLists.txt), one test per dataset:
#   cmake -DETA2_BIN=<eta2 binary> -DDATASET=<survey|sfv|synthetic>
#         -DMANIFEST=<manifest file> -DWORK_DIR=<scratch dir> -P this_file
# To record a new manifest after an intended behaviour change, add
# -DREGENERATE=ON (or set ETA2_FENCE_REGENERATE=1 in the environment of
# `ctest -L fence`); the keys whose hashes moved are printed.
if(NOT DEFINED ETA2_BIN OR NOT DEFINED DATASET OR NOT DEFINED MANIFEST
   OR NOT DEFINED WORK_DIR)
  message(FATAL_ERROR "usage: cmake -DETA2_BIN=... -DDATASET=... -DMANIFEST=... -DWORK_DIR=... -P simulate_fence.cmake")
endif()
if("$ENV{ETA2_FENCE_REGENERATE}")
  set(REGENERATE ON)
endif()

set(methods eta2 eta2-mc hubs avglog truthfinder em median baseline)
set(seeds 1 2 3 4 5)

set(expected "")
if(EXISTS "${MANIFEST}")
  file(STRINGS "${MANIFEST}" expected)
endif()
if(NOT expected AND NOT REGENERATE)
  message(FATAL_ERROR "fence manifest ${MANIFEST} is missing or empty (record it with -DREGENERATE=ON)")
endif()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

set(actual "")
set(mismatches "")
foreach(method IN LISTS methods)
  foreach(seed IN LISTS seeds)
    set(key "${method} ${seed}")
    file(REMOVE "${WORK_DIR}/fence.csv")
    execute_process(
      COMMAND "${ETA2_BIN}" simulate "--dataset=${DATASET}"
              "--method=${method}" "--seed=${seed}" --out=fence.csv
      WORKING_DIRECTORY "${WORK_DIR}"
      RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
    if(NOT rc EQUAL 0 OR NOT EXISTS "${WORK_DIR}/fence.csv")
      message(FATAL_ERROR "simulate ${DATASET} ${key} failed (exit ${rc}):\n${out}\n${err}")
    endif()
    string(SHA256 out_hash "${out}")
    file(SHA256 "${WORK_DIR}/fence.csv" csv_hash)
    set(line "${key} ${out_hash} ${csv_hash}")
    list(APPEND actual "${line}")
    list(FIND expected "${line}" found)
    if(found EQUAL -1 AND expected)
      list(APPEND mismatches "(${method}, ${DATASET}, ${seed})")
    endif()
  endforeach()
endforeach()

list(LENGTH expected expected_count)
list(LENGTH actual actual_count)
if(expected AND NOT expected_count EQUAL actual_count)
  list(APPEND mismatches "manifest holds ${expected_count} lines, the fence ran ${actual_count}")
endif()

if(REGENERATE)
  list(JOIN actual "\n" body)
  file(WRITE "${MANIFEST}" "${body}\n")
  if(mismatches)
    list(JOIN mismatches "\n  " moved)
    message(STATUS "rewrote ${MANIFEST}; changed keys:\n  ${moved}")
  else()
    message(STATUS "rewrote ${MANIFEST}; no key changed")
  endif()
elseif(mismatches)
  list(JOIN mismatches "\n  " moved)
  message(FATAL_ERROR "simulate output moved from ${MANIFEST} for:\n  ${moved}")
endif()

file(REMOVE_RECURSE "${WORK_DIR}")
