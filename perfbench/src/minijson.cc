#include "minijson.h"

#include <algorithm>
#include <cctype>
#include <cstdlib>

namespace perfbench {

const JVal* JVal::Get(std::string_view key) const {
  for (const auto& [name, value] : fields) {
    if (name == key) {
      return &value;
    }
  }
  return nullptr;
}

std::string JVal::Str(std::string_view key) const {
  const JVal* v = Get(key);
  return v != nullptr && v->type == kString ? v->str : std::string();
}

double JVal::Num(std::string_view key, double fallback) const {
  const JVal* v = Get(key);
  return v != nullptr && v->type == kNumber ? v->number : fallback;
}

bool JVal::IsTrue(std::string_view key) const {
  const JVal* v = Get(key);
  return v != nullptr && v->type == kBool && v->boolean;
}

void JVal::Erase(std::string_view key) {
  fields.erase(std::remove_if(fields.begin(), fields.end(),
                              [key](const auto& f) { return f.first == key; }),
               fields.end());
}

bool operator==(const JVal& a, const JVal& b) {
  return a.type == b.type && a.boolean == b.boolean && a.number == b.number &&
         a.str == b.str && a.items == b.items && a.fields == b.fields;
}

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : s_(text) {}

  bool Document(JVal* out) {
    if (!Value(out, 0)) {
      return false;
    }
    SkipSpace();
    return pos_ == s_.size();
  }

 private:
  static constexpr int kMaxDepth = 64;

  void SkipSpace() {
    while (pos_ < s_.size() && (s_[pos_] == ' ' || s_[pos_] == '\t' ||
                                s_[pos_] == '\n' || s_[pos_] == '\r')) {
      pos_++;
    }
  }

  bool Literal(std::string_view word) {
    if (s_.substr(pos_, word.size()) != word) {
      return false;
    }
    pos_ += word.size();
    return true;
  }

  static void AppendUtf8(unsigned code, std::string* out) {
    if (code < 0x80) {
      out->push_back(static_cast<char>(code));
    } else if (code < 0x800) {
      out->push_back(static_cast<char>(0xc0 | (code >> 6)));
      out->push_back(static_cast<char>(0x80 | (code & 0x3f)));
    } else {
      out->push_back(static_cast<char>(0xe0 | (code >> 12)));
      out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3f)));
      out->push_back(static_cast<char>(0x80 | (code & 0x3f)));
    }
  }

  bool String(std::string* out) {
    pos_++;  // opening quote
    while (pos_ < s_.size()) {
      // Copy the run of plain characters in one append.
      std::size_t run = pos_;
      while (run < s_.size() && s_[run] != '"' && s_[run] != '\\') {
        run++;
      }
      out->append(s_.data() + pos_, run - pos_);
      pos_ = run;
      if (pos_ >= s_.size()) {
        return false;
      }
      char c = s_[pos_++];
      if (c == '"') {
        return true;
      }
      if (pos_ >= s_.size()) {
        return false;
      }
      char e = s_[pos_++];
      switch (e) {
        case '"': out->push_back('"'); break;
        case '\\': out->push_back('\\'); break;
        case '/': out->push_back('/'); break;
        case 'b': out->push_back('\b'); break;
        case 'f': out->push_back('\f'); break;
        case 'n': out->push_back('\n'); break;
        case 'r': out->push_back('\r'); break;
        case 't': out->push_back('\t'); break;
        case 'u': {
          if (pos_ + 4 > s_.size()) {
            return false;
          }
          std::string hex(s_.substr(pos_, 4));
          char* end = nullptr;
          unsigned code =
              static_cast<unsigned>(std::strtoul(hex.c_str(), &end, 16));
          if (end != hex.c_str() + 4) {
            return false;
          }
          pos_ += 4;
          AppendUtf8(code, out);
          break;
        }
        default:
          return false;
      }
    }
    return false;
  }

  bool Value(JVal* out, int depth) {
    if (depth > kMaxDepth) {
      return false;
    }
    SkipSpace();
    if (pos_ >= s_.size()) {
      return false;
    }
    char c = s_[pos_];
    if (c == '{') {
      out->type = JVal::kObject;
      pos_++;
      SkipSpace();
      if (pos_ < s_.size() && s_[pos_] == '}') {
        pos_++;
        return true;
      }
      while (true) {
        SkipSpace();
        if (pos_ >= s_.size() || s_[pos_] != '"') {
          return false;
        }
        std::string key;
        if (!String(&key)) {
          return false;
        }
        SkipSpace();
        if (pos_ >= s_.size() || s_[pos_] != ':') {
          return false;
        }
        pos_++;
        out->fields.emplace_back(std::move(key), JVal());
        if (!Value(&out->fields.back().second, depth + 1)) {
          return false;
        }
        SkipSpace();
        if (pos_ < s_.size() && s_[pos_] == ',') {
          pos_++;
          continue;
        }
        if (pos_ < s_.size() && s_[pos_] == '}') {
          pos_++;
          return true;
        }
        return false;
      }
    }
    if (c == '[') {
      out->type = JVal::kArray;
      pos_++;
      SkipSpace();
      if (pos_ < s_.size() && s_[pos_] == ']') {
        pos_++;
        return true;
      }
      while (true) {
        out->items.emplace_back();
        if (!Value(&out->items.back(), depth + 1)) {
          return false;
        }
        SkipSpace();
        if (pos_ < s_.size() && s_[pos_] == ',') {
          pos_++;
          continue;
        }
        if (pos_ < s_.size() && s_[pos_] == ']') {
          pos_++;
          return true;
        }
        return false;
      }
    }
    if (c == '"') {
      out->type = JVal::kString;
      return String(&out->str);
    }
    if (Literal("true")) {
      out->type = JVal::kBool;
      out->boolean = true;
      return true;
    }
    if (Literal("false")) {
      out->type = JVal::kBool;
      return true;
    }
    if (Literal("null")) {
      return true;
    }
    std::size_t end = pos_;
    while (end < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[end])) ||
            s_[end] == '-' || s_[end] == '+' || s_[end] == '.' ||
            s_[end] == 'e' || s_[end] == 'E')) {
      end++;
    }
    if (end == pos_) {
      return false;
    }
    std::string digits(s_.substr(pos_, end - pos_));
    char* stop = nullptr;
    out->type = JVal::kNumber;
    out->number = std::strtod(digits.c_str(), &stop);
    pos_ = end;
    return stop == digits.c_str() + digits.size();
  }

  std::string_view s_;
  std::size_t pos_ = 0;
};

}  // namespace

bool ParseJson(std::string_view text, JVal* out) {
  *out = JVal();
  return Parser(text).Document(out);
}

}  // namespace perfbench
