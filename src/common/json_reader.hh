/**
 * @file
 * Minimal recursive-descent JSON parser for the experiment service.
 *
 * The write side of every dapsim artifact uses json_writer.hh; this is
 * the matching read side, needed by the `dapsim.expq.v1` ledger whose
 * replay must parse its own records back. Scope is deliberately small:
 * one self-contained value per parse() call, objects as ordered maps,
 * numbers kept as raw text (so 64-bit integers round-trip exactly) with
 * typed accessors on top. No external dependencies.
 *
 * Errors throw JsonError; the ledger reader converts a throwing tail
 * record into a dropped torn record.
 */

#ifndef DAPSIM_COMMON_JSON_READER_HH
#define DAPSIM_COMMON_JSON_READER_HH

#include <cstdint>
#include <cstdio>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/parse_number.hh"

namespace dapsim::json
{

class JsonError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/** One parsed JSON value. */
struct Value
{
    enum class Kind { Null, Bool, Number, String, Array, Object };

    Kind kind = Kind::Null;
    bool b = false;
    std::string text; ///< string contents, or a number's raw text
    std::vector<Value> arr;
    std::map<std::string, Value> obj;

    /** Object member or null; throws when not an object. */
    const Value *
    find(const std::string &key) const
    {
        if (kind != Kind::Object)
            throw JsonError("json: member lookup on a non-object");
        const auto it = obj.find(key);
        return it == obj.end() ? nullptr : &it->second;
    }

    /** Required object member; throws when missing. */
    const Value &
    at(const std::string &key) const
    {
        const Value *v = find(key);
        if (v == nullptr)
            throw JsonError("json: missing key '" + key + "'");
        return *v;
    }

    const std::string &
    asString() const
    {
        if (kind != Kind::String)
            throw JsonError("json: expected a string");
        return text;
    }

    bool
    asBool() const
    {
        if (kind != Kind::Bool)
            throw JsonError("json: expected a boolean");
        return b;
    }

    std::uint64_t
    asU64() const
    {
        if (kind != Kind::Number)
            throw JsonError("json: expected a number");
        if (const auto v = parseUnsigned(text))
            return *v;
        throw JsonError("json: '" + text + "' is not an unsigned integer");
    }

    double
    asDouble() const
    {
        if (kind != Kind::Number)
            throw JsonError("json: expected a number");
        if (const auto v = parseFinite(text))
            return *v;
        throw JsonError("json: '" + text + "' is not a number");
    }
};

namespace detail
{

class Parser
{
  public:
    Parser(const char *s, std::size_t n) : s_(s), n_(n) {}

    Value
    parse()
    {
        const Value v = value();
        ws();
        if (pos_ != n_)
            throw JsonError("json: trailing bytes after value");
        return v;
    }

  private:
    void
    ws()
    {
        while (pos_ < n_ && (s_[pos_] == ' ' || s_[pos_] == '\t' ||
                             s_[pos_] == '\n' || s_[pos_] == '\r'))
            ++pos_;
    }

    char
    peek()
    {
        if (pos_ >= n_)
            throw JsonError("json: truncated input");
        return s_[pos_];
    }

    void
    expect(char c)
    {
        if (peek() != c)
            throw JsonError(std::string("json: expected '") + c +
                            "', found '" + s_[pos_] + "'");
        ++pos_;
    }

    bool
    consumeLiteral(const char *lit)
    {
        std::size_t i = 0;
        while (lit[i] != '\0') {
            if (pos_ + i >= n_ || s_[pos_ + i] != lit[i])
                return false;
            ++i;
        }
        pos_ += i;
        return true;
    }

    std::string
    string()
    {
        expect('"');
        std::string out;
        for (;;) {
            if (pos_ >= n_)
                throw JsonError("json: unterminated string");
            const char c = s_[pos_++];
            if (c == '"')
                return out;
            if (c != '\\') {
                out += c;
                continue;
            }
            if (pos_ >= n_)
                throw JsonError("json: unterminated escape");
            const char e = s_[pos_++];
            switch (e) {
              case '"':
              case '\\':
              case '/':
                out += e;
                break;
              case 'n':
                out += '\n';
                break;
              case 'r':
                out += '\r';
                break;
              case 't':
                out += '\t';
                break;
              case 'b':
                out += '\b';
                break;
              case 'f':
                out += '\f';
                break;
              case 'u': {
                if (pos_ + 4 > n_)
                    throw JsonError("json: truncated \\u escape");
                unsigned code = 0;
                for (int k = 0; k < 4; ++k) {
                    const char h = s_[pos_++];
                    code <<= 4;
                    if (h >= '0' && h <= '9')
                        code |= static_cast<unsigned>(h - '0');
                    else if (h >= 'a' && h <= 'f')
                        code |= static_cast<unsigned>(h - 'a' + 10);
                    else if (h >= 'A' && h <= 'F')
                        code |= static_cast<unsigned>(h - 'A' + 10);
                    else
                        throw JsonError("json: bad \\u escape");
                }
                // The writer only emits \u00xx for control bytes;
                // decode the BMP range as UTF-8 for completeness.
                if (code < 0x80) {
                    out += static_cast<char>(code);
                } else if (code < 0x800) {
                    out += static_cast<char>(0xc0 | (code >> 6));
                    out += static_cast<char>(0x80 | (code & 0x3f));
                } else {
                    out += static_cast<char>(0xe0 | (code >> 12));
                    out += static_cast<char>(0x80 |
                                             ((code >> 6) & 0x3f));
                    out += static_cast<char>(0x80 | (code & 0x3f));
                }
                break;
              }
              default:
                throw JsonError("json: unknown escape");
            }
        }
    }

    Value
    value()
    {
        ws();
        const char c = peek();
        Value v;
        if (c == '{') {
            ++pos_;
            v.kind = Value::Kind::Object;
            ws();
            if (peek() == '}') {
                ++pos_;
                return v;
            }
            for (;;) {
                ws();
                std::string key = string();
                ws();
                expect(':');
                v.obj.emplace(std::move(key), value());
                ws();
                if (peek() == '}') {
                    ++pos_;
                    return v;
                }
                expect(',');
            }
        }
        if (c == '[') {
            ++pos_;
            v.kind = Value::Kind::Array;
            ws();
            if (peek() == ']') {
                ++pos_;
                return v;
            }
            for (;;) {
                v.arr.push_back(value());
                ws();
                if (peek() == ']') {
                    ++pos_;
                    return v;
                }
                expect(',');
            }
        }
        if (c == '"') {
            v.kind = Value::Kind::String;
            v.text = string();
            return v;
        }
        if (consumeLiteral("true")) {
            v.kind = Value::Kind::Bool;
            v.b = true;
            return v;
        }
        if (consumeLiteral("false")) {
            v.kind = Value::Kind::Bool;
            v.b = false;
            return v;
        }
        if (consumeLiteral("null"))
            return v;
        // Number: accept the JSON grammar loosely and validate in the
        // typed accessors.
        const std::size_t start = pos_;
        if (c == '-')
            ++pos_;
        while (pos_ < n_ &&
               ((s_[pos_] >= '0' && s_[pos_] <= '9') ||
                s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
                s_[pos_] == '+' || s_[pos_] == '-'))
            ++pos_;
        if (pos_ == start)
            throw JsonError("json: unexpected character");
        v.kind = Value::Kind::Number;
        v.text.assign(s_ + start, pos_ - start);
        return v;
    }

    const char *s_;
    std::size_t n_;
    std::size_t pos_ = 0;
};

} // namespace detail

/** Parse one self-contained JSON value; throws JsonError. */
inline Value
parse(const std::string &text)
{
    return detail::Parser(text.data(), text.size()).parse();
}

} // namespace dapsim::json

#endif // DAPSIM_COMMON_JSON_READER_HH
