#ifndef JAGUAR_COMMON_STRING_UTIL_H_
#define JAGUAR_COMMON_STRING_UTIL_H_

/// \file string_util.h
/// Small string helpers used by the SQL lexer, catalog, and CLI tools.

#include <string>
#include <vector>

namespace jaguar {

/// \return Copy of `s` lower-cased (ASCII only).
std::string ToLower(const std::string& s);
/// \return Copy of `s` upper-cased (ASCII only).
std::string ToUpper(const std::string& s);

/// Case-insensitive ASCII equality.
bool EqualsIgnoreCase(const std::string& a, const std::string& b);

/// Splits `s` on `sep`, keeping empty fields.
std::vector<std::string> Split(const std::string& s, char sep);

/// Strips leading/trailing ASCII whitespace.
std::string Trim(const std::string& s);

/// \return true if `s` starts with / ends with the given prefix/suffix.
bool StartsWith(const std::string& s, const std::string& prefix);
bool EndsWith(const std::string& s, const std::string& suffix);

/// printf-style formatting into a std::string.
std::string StringPrintf(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

}  // namespace jaguar

#endif  // JAGUAR_COMMON_STRING_UTIL_H_
