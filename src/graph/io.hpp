#pragma once

// Graph serialization: a simple edge-list text format and Graphviz export.
//
// Edge-list format:
//   line 1:  "<num_vertices>"
//   then one line per edge: "<u> <v> [<capacity>]" (capacity defaults
//   to 1; when given it must be a finite positive number)
// Lines starting with '#' are comments. This round-trips exactly
// (edge order and capacities preserved). read_edge_list throws CheckError
// naming the line on a malformed row, an endpoint outside [0, n), a
// self-loop, or a bad capacity.

#include <iosfwd>
#include <string>

#include "graph/graph.hpp"

namespace sor {

void write_edge_list(const Graph& g, std::ostream& os);
Graph read_edge_list(std::istream& is);

/// Convenience file wrappers; throw CheckError on I/O failure.
void save_graph(const Graph& g, const std::string& path);
Graph load_graph(const std::string& path);

/// Graphviz "graph { ... }" rendering (for small graphs / debugging).
void write_dot(const Graph& g, std::ostream& os);

}  // namespace sor
