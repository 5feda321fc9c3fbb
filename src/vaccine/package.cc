#include "vaccine/package.h"

#include "support/json.h"
#include "support/strings.h"
#include "vaccine/json.h"

namespace autovac::vaccine {
namespace {

constexpr uint64_t kPackageVersion = 2;

}  // namespace

std::string SerializePackage(const std::vector<Vaccine>& vaccines) {
  return StrFormat("{\"type\":\"vaccine-package\",\"version\":%llu,"
                   "\"vaccines\":",
                   static_cast<unsigned long long>(kPackageVersion)) +
         VaccineArrayToJson(vaccines) + "}\n";
}

Result<std::vector<Vaccine>> ParsePackage(std::string_view text) {
  if (text.starts_with("VACCINEPKG")) {
    return Status::InvalidArgument(
        "a VACCINEPKG v1 package, a retired line format: re-create it "
        "with analyze --package, which writes JSON packages (version 2)");
  }
  AUTOVAC_ASSIGN_OR_RETURN(const JsonValue json, ParseJson(text));
  AUTOVAC_ASSIGN_OR_RETURN(const std::string type,
                           JsonFieldString(json, "type"));
  if (type != "vaccine-package") {
    return Status::InvalidArgument(
        StrFormat("not a vaccine package: type '%s'", type.c_str()));
  }
  AUTOVAC_ASSIGN_OR_RETURN(const uint64_t version,
                           JsonFieldUint64(json, "version"));
  if (version != kPackageVersion) {
    return Status::InvalidArgument(
        StrFormat("unsupported package version %llu",
                  static_cast<unsigned long long>(version)));
  }
  return VaccineArrayFromJson(json, "vaccines");
}

}  // namespace autovac::vaccine
