#include "core/snapshot_source.h"

#include "geometry/normalized_region.h"
#include "layout/library.h"

#include <cctype>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <stdexcept>

namespace dfm {

LibrarySource::LibrarySource(std::shared_ptr<const Library> lib,
                             std::uint32_t top)
    : lib_(std::move(lib)), top_(top) {}

std::string LibrarySource::describe() const { return "library"; }

Rect LibrarySource::layer_bbox(LayerKey k) const {
  return lib_->flatten(top_, k).bbox();
}

Region LibrarySource::read_layer(LayerKey k) const {
  Region r = lib_->flatten(top_, k);
  (void)NormalizedRegion{r};
  return r;
}

Region LibrarySource::read_layer_window(LayerKey k, const Rect& window) const {
  Region r = lib_->flatten_window(top_, k, window);
  (void)NormalizedRegion{r};
  return r;
}

bool parse_byte_size(const std::string& text, std::size_t* out) {
  if (text.empty()) return false;
  std::size_t i = 0;
  constexpr std::size_t kMax = std::numeric_limits<std::size_t>::max();
  std::size_t value = 0;
  while (i < text.size() &&
         std::isdigit(static_cast<unsigned char>(text[i])) != 0) {
    const auto digit = static_cast<std::size_t>(text[i] - '0');
    if (value > (kMax - digit) / 10) return false;  // overflow
    value = value * 10 + digit;
    ++i;
  }
  if (i == 0) return false;  // no digits
  std::size_t mult = 1;
  if (i < text.size()) {
    switch (std::tolower(static_cast<unsigned char>(text[i]))) {
      case 'k': mult = std::size_t{1} << 10; ++i; break;
      case 'g': mult = std::size_t{1} << 30; ++i; break;
      case 'm': mult = std::size_t{1} << 20; ++i; break;
      default: break;
    }
    // Optional "B" / "iB" tail ("64MiB", "512kb").
    if (i < text.size() &&
        std::tolower(static_cast<unsigned char>(text[i])) == 'i') {
      ++i;
    }
    if (i < text.size() &&
        std::tolower(static_cast<unsigned char>(text[i])) == 'b') {
      ++i;
    }
    if (i != text.size()) return false;
  }
  if (value > kMax / mult) return false;  // overflow
  *out = value * mult;
  return true;
}

std::uint64_t parse_count(const std::string& what, const std::string& text,
                          std::uint64_t max) {
  std::uint64_t value = 0;
  bool ok = !text.empty();
  for (const char c : text) {
    const auto digit = static_cast<std::uint64_t>(c - '0');
    if (c < '0' || c > '9' || value > max / 10 || digit > max - value * 10) {
      ok = false;
      break;
    }
    value = value * 10 + digit;
  }
  if (!ok) {
    throw std::runtime_error(what + ": expected a whole number from 0 to " +
                             std::to_string(max) + ", got '" + text + "'");
  }
  return value;
}

double parse_threshold(const std::string& what, const std::string& text) {
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  // strtod skips leading space and reads "nan", "inf" and a sign.
  if (text.empty() || std::isspace(static_cast<unsigned char>(text[0])) ||
      end != text.c_str() + text.size() || !std::isfinite(value) ||
      value < 0) {
    throw std::runtime_error(what +
                             ": expected a finite number of at least 0, got '" +
                             text + "'");
  }
  return value;
}

}  // namespace dfm
