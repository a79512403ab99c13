#include "psk/table/value.h"

#include <cmath>
#include <cstdio>

#include "psk/common/check.h"
#include "psk/common/string_util.h"

namespace psk {

std::string_view ValueTypeToString(ValueType type) {
  switch (type) {
    case ValueType::kNull:
      return "null";
    case ValueType::kInt64:
      return "int64";
    case ValueType::kDouble:
      return "double";
    case ValueType::kString:
      return "string";
  }
  return "unknown";
}

int64_t Value::AsInt64() const {
  PSK_CHECK_MSG(type() == ValueType::kInt64, "Value::AsInt64 on non-int64");
  return std::get<int64_t>(data_);
}

double Value::AsDouble() const {
  PSK_CHECK_MSG(type() == ValueType::kDouble, "Value::AsDouble on non-double");
  return std::get<double>(data_);
}

const std::string& Value::AsString() const {
  PSK_CHECK_MSG(type() == ValueType::kString, "Value::AsString on non-string");
  return std::get<std::string>(data_);
}

double Value::AsNumeric() const {
  switch (type()) {
    case ValueType::kInt64:
      return static_cast<double>(std::get<int64_t>(data_));
    case ValueType::kDouble:
      return std::get<double>(data_);
    default:
      PSK_CHECK_MSG(false, "Value::AsNumeric on non-numeric value");
      return 0.0;
  }
}

std::string Value::ToString() const {
  switch (type()) {
    case ValueType::kNull:
      return "";
    case ValueType::kInt64:
      return std::to_string(std::get<int64_t>(data_));
    case ValueType::kDouble: {
      // %.17g round-trips doubles while keeping short representations for
      // common values.
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.17g", std::get<double>(data_));
      return buf;
    }
    case ValueType::kString:
      return std::get<std::string>(data_);
  }
  return "";
}

Result<Value> Value::Parse(std::string_view text, ValueType type) {
  if (text.empty()) return Value::Null();
  switch (type) {
    case ValueType::kNull:
      return Value::Null();
    case ValueType::kInt64: {
      PSK_ASSIGN_OR_RETURN(int64_t v, ParseInt64(text));
      return Value(v);
    }
    case ValueType::kDouble: {
      PSK_ASSIGN_OR_RETURN(double v, ParseDouble(text));
      return Value(v);
    }
    case ValueType::kString:
      return Value(std::string(text));
  }
  return Status::InvalidArgument("unknown value type");
}

namespace {

// Order classes: null < numeric < string.
int OrderClass(ValueType t) {
  switch (t) {
    case ValueType::kNull:
      return 0;
    case ValueType::kInt64:
    case ValueType::kDouble:
      return 1;
    case ValueType::kString:
      return 2;
  }
  return 3;
}

}  // namespace

bool operator==(const Value& a, const Value& b) {
  ValueType ta = a.type();
  ValueType tb = b.type();
  if (OrderClass(ta) != OrderClass(tb)) return false;
  switch (OrderClass(ta)) {
    case 0:
      return true;  // null == null
    case 1:
      if (ta == ValueType::kInt64 && tb == ValueType::kInt64) {
        return a.AsInt64() == b.AsInt64();
      }
      return a.AsNumeric() == b.AsNumeric();
    default:
      return a.AsString() == b.AsString();
  }
}

bool operator<(const Value& a, const Value& b) {
  int ca = OrderClass(a.type());
  int cb = OrderClass(b.type());
  if (ca != cb) return ca < cb;
  switch (ca) {
    case 0:
      return false;  // null !< null
    case 1:
      if (a.type() == ValueType::kInt64 && b.type() == ValueType::kInt64) {
        return a.AsInt64() < b.AsInt64();
      }
      return a.AsNumeric() < b.AsNumeric();
    default:
      return a.AsString() < b.AsString();
  }
}

size_t Value::Hash() const {
  switch (type()) {
    case ValueType::kNull:
      return 0x9e3779b97f4a7c15ULL;
    case ValueType::kInt64:
      // Mixed numeric equality compares AsNumeric(), so every int64 hashes
      // as the double it compares equal to (int64 2^53 + 1 == double 2^53,
      // INT64_MAX == double 2^63).
      return std::hash<double>()(
          static_cast<double>(std::get<int64_t>(data_)));
    case ValueType::kDouble:
      return std::hash<double>()(std::get<double>(data_));
    case ValueType::kString:
      return std::hash<std::string>()(std::get<std::string>(data_));
  }
  return 0;
}

std::ostream& operator<<(std::ostream& os, const Value& value) {
  return os << value.ToString();
}

}  // namespace psk
