#include "demand/io.hpp"

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>

namespace sor {

void write_demand(const Demand& demand, std::ostream& os) {
  for (const Commodity& c : demand.commodities()) {
    os << c.src << " " << c.dst << " " << c.amount << "\n";
  }
}

Demand read_demand(std::istream& is) {
  Demand demand;
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(is, line)) {
    ++line_no;
    const auto first = line.find_first_not_of(" \t\r");
    if (first == std::string::npos || line[first] == '#') continue;
    std::istringstream row(line);
    Vertex s = 0, t = 0;
    std::string field;
    SOR_CHECK_MSG(static_cast<bool>(row >> s >> t >> field),
                  "demand file line " << line_no << ": bad line: " << line);
    // The whole field must be the number: "2x" is not an amount of 2.
    char* end = nullptr;
    const double amount = std::strtod(field.c_str(), &end);
    SOR_CHECK_MSG(*end == '\0' && std::isfinite(amount) && amount >= 0,
                  "demand file line " << line_no << ": bad line: amount must "
                                         "be a finite nonnegative number, "
                                         "got \"" << field << "\"");
    demand.add(s, t, amount);
  }
  return demand;
}

void save_demand(const Demand& demand, const std::string& path) {
  std::ofstream os(path);
  SOR_CHECK_MSG(os.good(), "cannot open " << path << " for writing");
  write_demand(demand, os);
  SOR_CHECK_MSG(os.good(), "write to " << path << " failed");
}

Demand load_demand(const std::string& path) {
  std::ifstream is(path);
  SOR_CHECK_MSG(is.good(), "cannot open " << path);
  return read_demand(is);
}

}  // namespace sor
