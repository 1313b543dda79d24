#pragma once

#include <cstddef>
#include <istream>
#include <string>
#include <string_view>

namespace maxutil::util {

/// Bit-exact text rendering of a double as a C hexfloat ("%a"): it survives
/// a text round trip without rounding, unlike any decimal precision. The
/// codec of the controller state blob, the serve snapshot header and the
/// WAL meta file.
std::string hex_double(double v);

/// Reads one whitespace-delimited token and parses it whole with strtod,
/// which reads hexfloats (std::istream's num_get does not). Throws
/// CheckError "<context>: truncated blob" at end of input and
/// "<context>: malformed number '<token>'" on a partial parse.
double read_double(std::istream& in, std::string_view context);

/// Reads one unsigned decimal integer; throws CheckError
/// "<context>: truncated blob" when none can be read.
std::size_t read_size(std::istream& in, std::string_view context);

}  // namespace maxutil::util
