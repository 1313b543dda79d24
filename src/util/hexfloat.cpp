#include "util/hexfloat.hpp"

#include <cstdio>
#include <cstdlib>

#include "util/check.hpp"

namespace maxutil::util {

std::string hex_double(double v) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%a", v);
  return buf;
}

// The messages are built only on failure: these run once per number of a
// blob, and a routing blob holds one number per slot.

double read_double(std::istream& in, std::string_view context) {
  std::string token;
  if (!(in >> token)) ensure(false, std::string(context) + ": truncated blob");
  char* end = nullptr;
  const double v = std::strtod(token.c_str(), &end);
  if (end == token.c_str() || *end != '\0') {
    ensure(false, std::string(context) + ": malformed number '" + token + "'");
  }
  return v;
}

std::size_t read_size(std::istream& in, std::string_view context) {
  std::size_t v = 0;
  if (!(in >> v)) ensure(false, std::string(context) + ": truncated blob");
  return v;
}

}  // namespace maxutil::util
