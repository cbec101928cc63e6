# Fails if a Prometheus text exposition declares any metric family more
# than once. Scrapers reject such an exposition, and it is what two
# metrics under one telemetry name (or two names that sanitize to the
# same family) produce.
#
# Usage:
#   cmake -DEXPOSITION=<path> -P check_prom_families.cmake

cmake_minimum_required(VERSION 3.16)

if(NOT DEFINED EXPOSITION)
  message(FATAL_ERROR "check_prom_families.cmake needs -DEXPOSITION")
endif()

file(STRINGS ${EXPOSITION} type_lines REGEX "^# TYPE ")
if(NOT type_lines)
  message(FATAL_ERROR "${EXPOSITION} declares no metric family")
endif()
set(seen "")
set(duplicates "")
foreach(line IN LISTS type_lines)
  string(REGEX REPLACE "^# TYPE ([^ ]+) .*$" "\\1" family "${line}")
  if(family IN_LIST seen)
    list(APPEND duplicates ${family})
  endif()
  list(APPEND seen ${family})
endforeach()
if(duplicates)
  list(REMOVE_DUPLICATES duplicates)
  message(FATAL_ERROR
    "${EXPOSITION} declares these families more than once: ${duplicates}")
endif()
list(LENGTH seen count)
message(STATUS "${count} metric families, each declared once")
