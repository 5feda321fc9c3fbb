// Bundles everything that constitutes "a machine": identity profile,
// object namespace, virtual clock, and the host-local entropy stream.
// Copyable so a run can snapshot and restore machine state.
#pragma once

#include "os/host.h"
#include "os/object_namespace.h"
#include "support/rng.h"

namespace autovac::os {

class HostEnvironment {
 public:
  explicit HostEnvironment(HostProfile profile, uint64_t entropy_seed = 7)
      : profile_(std::move(profile)), rng_(entropy_seed) {}

  // The analysis machine: deterministic profile + fully populated
  // standard namespace.
  static HostEnvironment StandardMachine(uint64_t entropy_seed = 7) {
    HostEnvironment env(HostProfile::AnalysisMachine(), entropy_seed);
    PopulateStandardMachine(env.ns_);
    return env;
  }

  // A field machine with a randomized identity.
  static HostEnvironment RandomizedMachine(autovac::Rng& rng) {
    // Two draws, two statements: argument evaluation order is unspecified.
    const uint64_t entropy_seed = rng.NextU64();
    HostEnvironment env(HostProfile::Randomized(rng), entropy_seed);
    PopulateStandardMachine(env.ns_);
    return env;
  }

  [[nodiscard]] const HostProfile& profile() const { return profile_; }
  [[nodiscard]] HostProfile& mutable_profile() { return profile_; }
  [[nodiscard]] ObjectNamespace& ns() { return ns_; }
  [[nodiscard]] const ObjectNamespace& ns() const { return ns_; }
  [[nodiscard]] VirtualClock& clock() { return clock_; }
  [[nodiscard]] autovac::Rng& entropy() { return rng_; }

 private:
  HostProfile profile_;
  ObjectNamespace ns_;
  VirtualClock clock_;
  autovac::Rng rng_;
};

}  // namespace autovac::os
