// Vaccine packages: the deployable artifact of the paper's workflow.
//
// The analysis cluster generates vaccines; end hosts receive them as a
// package ("these vaccines are packed with installation scripts",
// §VI-F.2). A package is one canonical JSON document,
//   {"type":"vaccine-package","version":2,"vaccines":[<vaccine json>...]}
// whose elements are exactly VaccineToJson (vaccine/json.h), the encoding
// reports, the store and the vacd wire carry. So every field the daemon
// needs round-trips byte for byte, algorithm-deterministic slices (code
// and data image) included, and a vaccine keeps its VaccineDigest across
// a package.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "support/status.h"
#include "vaccine/vaccine.h"

namespace autovac::vaccine {

[[nodiscard]] std::string SerializePackage(
    const std::vector<Vaccine>& vaccines);

// Refuses, with InvalidArgument, anything but a version-2 package: the
// retired VACCINEPKG v1 line format by name, another version, malformed
// JSON, and any element VaccineFromJson refuses.
[[nodiscard]] Result<std::vector<Vaccine>> ParsePackage(
    std::string_view text);

}  // namespace autovac::vaccine
