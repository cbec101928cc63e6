#include "graph/io.hpp"

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>

namespace sor {

void write_edge_list(const Graph& g, std::ostream& os) {
  os << g.num_vertices() << "\n";
  for (const Edge& e : g.edges()) {
    os << e.u << " " << e.v << " " << e.capacity << "\n";
  }
}

Graph read_edge_list(std::istream& is) {
  std::string line;
  std::size_t line_no = 0;
  auto next_data_line = [&](std::string& out) -> bool {
    while (std::getline(is, out)) {
      ++line_no;
      // Skip blanks and comments.
      const auto first = out.find_first_not_of(" \t\r");
      if (first == std::string::npos) continue;
      if (out[first] == '#') continue;
      return true;
    }
    return false;
  };

  SOR_CHECK_MSG(next_data_line(line), "edge list: missing header line");
  std::size_t n = 0;
  {
    std::istringstream hdr(line);
    SOR_CHECK_MSG(static_cast<bool>(hdr >> n) && n >= 1,
                  "edge list: bad vertex count");
  }
  Graph g(n);
  while (next_data_line(line)) {
    std::istringstream row(line);
    Vertex u = 0, v = 0;
    SOR_CHECK_MSG(static_cast<bool>(row >> u >> v),
                  "edge list line " << line_no << ": bad edge line: " << line);
    SOR_CHECK_MSG(u < n && v < n && u != v,
                  "edge list line " << line_no << ": endpoints " << u << ","
                                    << v << " not two distinct vertices below "
                                    << n);
    double cap = 1.0;
    std::string field;
    if (row >> field) {
      // The whole field must be the number: "2x" is not a capacity of 2.
      char* end = nullptr;
      cap = std::strtod(field.c_str(), &end);
      SOR_CHECK_MSG(*end == '\0' && std::isfinite(cap) && cap > 0,
                    "edge list line " << line_no
                                      << ": capacity must be a finite "
                                         "positive number, got \""
                                      << field << "\"");
    }
    g.add_edge(u, v, cap);
  }
  return g;
}

void save_graph(const Graph& g, const std::string& path) {
  std::ofstream os(path);
  SOR_CHECK_MSG(os.good(), "cannot open " << path << " for writing");
  write_edge_list(g, os);
  SOR_CHECK_MSG(os.good(), "write to " << path << " failed");
}

Graph load_graph(const std::string& path) {
  std::ifstream is(path);
  SOR_CHECK_MSG(is.good(), "cannot open " << path);
  return read_edge_list(is);
}

void write_dot(const Graph& g, std::ostream& os) {
  os << "graph G {\n";
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    os << "  " << v << ";\n";
  }
  for (const Edge& e : g.edges()) {
    os << "  " << e.u << " -- " << e.v << " [label=\"" << e.capacity
       << "\"];\n";
  }
  os << "}\n";
}

}  // namespace sor
