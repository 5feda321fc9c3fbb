// JSON (de)serialization for analysis outcomes: Status, Vaccine,
// SampleReport and CampaignReport.
//
// This is the wire format of the durable-campaign layer — the write-ahead
// journal stores one SampleReport per line, and forked campaign workers
// ship their report to the supervisor through it — so the round trip must
// be *exact* for every deterministic field: a report that crossed a
// process boundary or a journal replay must serialize byte-identically to
// the in-memory original. One deliberate exception, documented in
// src/support/tracing.h: wall-clock span times (informational only) are
// not serialized and parse back as zero. The natural API trace travels
// as its summary (trace/serialize.h: digest and call count), about 70
// bytes in a report of about 1 KB.
#pragma once

#include <string>
#include <string_view>

#include "support/json.h"
#include "support/status.h"
#include "vaccine/pipeline.h"

namespace autovac::vaccine {

[[nodiscard]] std::string StatusToJson(const Status& status);
// Parses `json` into `*out`; the return value reports parse success
// (Result<Status> would be ambiguous — the payload is itself a Status).
[[nodiscard]] Status StatusFromJson(const JsonValue& json, Status* out);

[[nodiscard]] std::string VaccineToJson(const Vaccine& vaccine);
[[nodiscard]] Result<Vaccine> VaccineFromJson(const JsonValue& json);

// Content address of a vaccine: the digest of its canonical JSON
// serialization. Two vaccines with the same digest are byte-identical on
// the wire, which is what the store, the daemon dedup, and the PULL
// delta protocol all key on.
[[nodiscard]] std::string VaccineDigest(const Vaccine& vaccine);

[[nodiscard]] std::string SampleReportToJson(const SampleReport& report);
[[nodiscard]] Result<SampleReport> SampleReportFromJson(
    const JsonValue& json);
[[nodiscard]] Result<SampleReport> ParseSampleReportJson(
    std::string_view text);

// The campaign export (`autovac campaign --campaign-out`): aggregates
// plus every per-sample report. Deterministic under a fixed seed, whether
// the reports were produced in-process, by forked workers, or replayed
// from a journal — the byte-identity the resume tests assert.
[[nodiscard]] std::string CampaignReportToJson(const CampaignReport& report);

}  // namespace autovac::vaccine
