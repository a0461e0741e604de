#include "service/protocol.h"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>

#include <sys/socket.h>
#include <unistd.h>

namespace dfm::service {

namespace {

// ---------------------------------------------------------------------------
// Parser: strict recursive descent over the full input.

constexpr int kMaxDepth = 64;

class Parser {
 public:
  explicit Parser(std::string_view text) : s_(text) {}

  Json run() {
    Json v = value(0);
    skip_ws();
    if (pos_ != s_.size()) fail("trailing data after JSON value");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& why) const {
    throw JsonError("JSON parse error at byte " + std::to_string(pos_) + ": " +
                    why);
  }

  void skip_ws() {
    while (pos_ < s_.size()) {
      const char c = s_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= s_.size()) fail("unexpected end of input");
    return s_[pos_];
  }

  char take() {
    const char c = peek();
    ++pos_;
    return c;
  }

  void expect(char c) {
    if (take() != c) fail(std::string("expected '") + c + "'");
  }

  bool consume_literal(std::string_view lit) {
    if (s_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  Json value(int depth) {
    if (depth > kMaxDepth) fail("nesting too deep");
    skip_ws();
    const char c = peek();
    switch (c) {
      case '{': return object(depth);
      case '[': return array(depth);
      case '"': return Json(string());
      case 't':
        if (consume_literal("true")) return Json(true);
        fail("bad literal");
      case 'f':
        if (consume_literal("false")) return Json(false);
        fail("bad literal");
      case 'n':
        if (consume_literal("null")) return Json();
        fail("bad literal");
      default: return number();
    }
  }

  Json object(int depth) {
    expect('{');
    Json::Object out;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return Json(std::move(out));
    }
    for (;;) {
      skip_ws();
      if (peek() != '"') fail("expected object key");
      std::string key = string();
      skip_ws();
      expect(':');
      out[std::move(key)] = value(depth + 1);
      skip_ws();
      const char c = take();
      if (c == '}') return Json(std::move(out));
      if (c != ',') fail("expected ',' or '}'");
    }
  }

  Json array(int depth) {
    expect('[');
    Json::Array out;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return Json(std::move(out));
    }
    for (;;) {
      out.push_back(value(depth + 1));
      skip_ws();
      const char c = take();
      if (c == ']') return Json(std::move(out));
      if (c != ',') fail("expected ',' or ']'");
    }
  }

  std::string string() {
    expect('"');
    std::string out;
    for (;;) {
      const char c = take();
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) fail("raw control character");
      if (c != '\\') {
        out += c;
        continue;
      }
      const char e = take();
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          unsigned cp = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = take();
            cp <<= 4;
            if (h >= '0' && h <= '9') {
              cp |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              cp |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              cp |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              fail("bad \\u escape");
            }
          }
          // UTF-8 encode the BMP code point (surrogate pairs are passed
          // through as two 3-byte sequences; the protocol never needs
          // astral-plane text).
          if (cp < 0x80) {
            out += static_cast<char>(cp);
          } else if (cp < 0x800) {
            out += static_cast<char>(0xC0 | (cp >> 6));
            out += static_cast<char>(0x80 | (cp & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (cp >> 12));
            out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (cp & 0x3F));
          }
          break;
        }
        default: fail("bad escape");
      }
    }
  }

  Json number() {
    const std::size_t start = pos_;
    if (pos_ < s_.size() && s_[pos_] == '-') ++pos_;
    bool integral = true;
    bool digits = false;
    while (pos_ < s_.size()) {
      const char c = s_[pos_];
      if (c >= '0' && c <= '9') {
        digits = true;
        ++pos_;
      } else if (c == '.' || c == 'e' || c == 'E' || c == '+' || c == '-') {
        integral = false;
        ++pos_;
      } else {
        break;
      }
    }
    if (!digits) fail("bad number");
    const std::string text(s_.substr(start, pos_ - start));
    errno = 0;
    if (integral) {
      char* end = nullptr;
      const long long v = std::strtoll(text.c_str(), &end, 10);
      if (errno == 0 && end == text.c_str() + text.size()) {
        return Json(static_cast<std::int64_t>(v));
      }
      // Out of int64 range: fall through to double.
    }
    errno = 0;
    char* end = nullptr;
    const double d = std::strtod(text.c_str(), &end);
    // An overflow (1e999) would come back as inf, which dump() cannot
    // write as JSON.
    if (end != text.c_str() + text.size() || !std::isfinite(d)) {
      fail("bad number");
    }
    return Json(d);
  }

  std::string_view s_;
  std::size_t pos_ = 0;
};

void dump_string(const std::string& s, std::string& out) {
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

[[noreturn]] void kind_error(const char* wanted) {
  throw JsonError(std::string("JSON value is not ") + wanted);
}

}  // namespace

Json Json::parse(std::string_view text) { return Parser(text).run(); }

std::string Json::dump() const {
  std::string out;
  switch (kind_) {
    case Kind::kNull: out = "null"; break;
    case Kind::kBool: out = bool_ ? "true" : "false"; break;
    case Kind::kInt: out = std::to_string(int_); break;
    case Kind::kDouble: {
      char buf[32];
      std::snprintf(buf, sizeof buf, "%.17g", double_);
      out = buf;
      break;
    }
    case Kind::kString: dump_string(string_, out); break;
    case Kind::kArray: {
      out = "[";
      for (std::size_t i = 0; i < array_.size(); ++i) {
        if (i != 0) out += ",";
        out += array_[i].dump();
      }
      out += "]";
      break;
    }
    case Kind::kObject: {
      out = "{";
      bool first = true;
      for (const auto& [k, v] : object_) {
        if (!first) out += ",";
        first = false;
        dump_string(k, out);
        out += ":";
        out += v.dump();
      }
      out += "}";
      break;
    }
  }
  return out;
}

bool Json::as_bool() const {
  if (kind_ != Kind::kBool) kind_error("a bool");
  return bool_;
}

std::int64_t Json::as_int() const {
  if (kind_ == Kind::kInt) return int_;
  if (kind_ == Kind::kDouble) {
    const auto i = static_cast<std::int64_t>(double_);
    if (static_cast<double>(i) == double_) return i;
  }
  kind_error("an integer");
}

double Json::as_double() const {
  if (kind_ == Kind::kInt) return static_cast<double>(int_);
  if (kind_ == Kind::kDouble) return double_;
  kind_error("a number");
}

const std::string& Json::as_string() const {
  if (kind_ != Kind::kString) kind_error("a string");
  return string_;
}

const Json::Array& Json::as_array() const {
  if (kind_ != Kind::kArray) kind_error("an array");
  return array_;
}

const Json::Object& Json::as_object() const {
  if (kind_ != Kind::kObject) kind_error("an object");
  return object_;
}

const Json* Json::find(const std::string& key) const {
  if (kind_ != Kind::kObject) return nullptr;
  const auto it = object_.find(key);
  return it == object_.end() ? nullptr : &it->second;
}

std::int64_t Json::get_int(const std::string& key, std::int64_t def) const {
  const Json* v = find(key);
  return v == nullptr ? def : v->as_int();
}

bool Json::get_bool(const std::string& key, bool def) const {
  const Json* v = find(key);
  return v == nullptr ? def : v->as_bool();
}

std::string Json::get_string(const std::string& key, std::string def) const {
  const Json* v = find(key);
  return v == nullptr ? std::move(def) : v->as_string();
}

void Json::set(const std::string& key, Json v) {
  if (kind_ == Kind::kNull) kind_ = Kind::kObject;
  if (kind_ != Kind::kObject) kind_error("an object");
  object_[key] = std::move(v);
}

// ---------------------------------------------------------------------------
// Framing

namespace {

/// recv() the exact byte count; false on clean EOF before the first
/// byte, throws on EOF mid-buffer or socket error.
bool read_exact(int fd, char* buf, std::size_t n, bool eof_ok_at_start) {
  std::size_t got = 0;
  while (got < n) {
    const ssize_t r = ::recv(fd, buf + got, n - got, 0);
    if (r > 0) {
      got += static_cast<std::size_t>(r);
      continue;
    }
    if (r == 0) {
      if (got == 0 && eof_ok_at_start) return false;
      throw ProtocolError(errc::kBadFrame,
                          "connection closed mid-frame (" +
                              std::to_string(got) + "/" + std::to_string(n) +
                              " bytes)");
    }
    if (errno == EINTR) continue;
    throw ProtocolError(errc::kBadFrame,
                        std::string("recv: ") + std::strerror(errno));
  }
  return true;
}

}  // namespace

bool read_frame(int fd, std::string& payload, std::size_t max_bytes) {
  unsigned char hdr[kFrameHeaderBytes];
  if (!read_exact(fd, reinterpret_cast<char*>(hdr), sizeof hdr, true)) {
    return false;
  }
  const std::uint32_t len = (static_cast<std::uint32_t>(hdr[0]) << 24) |
                            (static_cast<std::uint32_t>(hdr[1]) << 16) |
                            (static_cast<std::uint32_t>(hdr[2]) << 8) |
                            static_cast<std::uint32_t>(hdr[3]);
  if (len < 2) {
    throw ProtocolError(errc::kBadFrame,
                        "frame length " + std::to_string(len) +
                            " below minimum payload (\"{}\")");
  }
  if (len > max_bytes) {
    throw ProtocolError(errc::kFrameTooLarge,
                        "frame length " + std::to_string(len) +
                            " exceeds limit " + std::to_string(max_bytes));
  }
  payload.resize(len);
  read_exact(fd, payload.data(), len, false);
  return true;
}

void write_frame(int fd, std::string_view payload) {
  if (payload.size() > 0xFFFFFFFFu) {
    throw ProtocolError(errc::kBadFrame, "payload exceeds u32 length field");
  }
  const auto len = static_cast<std::uint32_t>(payload.size());
  char buf[kFrameHeaderBytes];
  buf[0] = static_cast<char>((len >> 24) & 0xFF);
  buf[1] = static_cast<char>((len >> 16) & 0xFF);
  buf[2] = static_cast<char>((len >> 8) & 0xFF);
  buf[3] = static_cast<char>(len & 0xFF);
  const auto send_all = [fd](const char* p, std::size_t n) {
    std::size_t sent = 0;
    while (sent < n) {
      const ssize_t r = ::send(fd, p + sent, n - sent, MSG_NOSIGNAL);
      if (r >= 0) {
        sent += static_cast<std::size_t>(r);
        continue;
      }
      if (errno == EINTR) continue;
      throw ProtocolError(errc::kBadFrame,
                          std::string("send: ") + std::strerror(errno));
    }
  };
  send_all(buf, sizeof buf);
  send_all(payload.data(), payload.size());
}

Json make_ok(std::uint64_t id, Json::Object fields) {
  fields["id"] = Json(id);
  fields["ok"] = Json(true);
  return Json(std::move(fields));
}

Json make_error(std::uint64_t id, const char* code,
                const std::string& message) {
  Json::Object out;
  out["id"] = Json(id);
  out["ok"] = Json(false);
  out["error"] = Json(std::string(code));
  out["message"] = Json(message);
  return Json(std::move(out));
}

LayerKey layer_from_name(const std::string& name) {
  if (name == "m1") return layers::kMetal1;
  if (name == "m2") return layers::kMetal2;
  if (name == "via1") return layers::kVia1;
  if (name == "poly") return layers::kPoly;
  if (name == "contact") return layers::kContact;
  if (name == "diff") return layers::kDiff;
  throw JsonError("unknown layer '" + name +
                  "' (m1|m2|via1|poly|contact|diff)");
}

}  // namespace dfm::service
