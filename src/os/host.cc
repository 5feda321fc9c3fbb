#include "os/host.h"

#include "support/strings.h"

namespace autovac::os {

HostProfile HostProfile::AnalysisMachine() { return HostProfile{}; }

HostProfile HostProfile::Randomized(autovac::Rng& rng) {
  HostProfile profile;
  profile.computer_name =
      "WIN-" + ToUpper(rng.NextIdentifier(8));
  static const std::vector<std::string> kUsers = {
      "alice", "bob", "carol", "dave", "erin", "frank", "grace", "heidi"};
  profile.user_name = rng.Pick(kUsers);
  profile.volume_serial = static_cast<uint32_t>(rng.NextU64());
  // One draw per statement: argument evaluation order is unspecified.
  const auto host_octet = static_cast<unsigned>(rng.NextBelow(253) + 2);
  const auto subnet_octet = static_cast<unsigned>(rng.NextBelow(254) + 1);
  profile.ip_address = StrFormat("192.168.%u.%u", subnet_octet, host_octet);
  return profile;
}

}  // namespace autovac::os
