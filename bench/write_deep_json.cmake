# Writes OUT: a single line of DEPTH '[' characters. To a recursive JSON
# parser without a depth limit this one line is a stack overflow; the
# ledger and artifact readers must reject it as an ordinary corrupt line.
#
# Usage:
#   cmake -DOUT=<path> -DDEPTH=<n> -P write_deep_json.cmake

cmake_minimum_required(VERSION 3.16)

if(NOT DEFINED OUT OR NOT DEFINED DEPTH)
  message(FATAL_ERROR "write_deep_json.cmake needs -DOUT and -DDEPTH")
endif()
string(REPEAT "[" ${DEPTH} line)
file(WRITE ${OUT} "${line}\n")
