// Unit tests for the observability subsystem: Tracer span recording and
// Chrome trace-event export (validated with a real JSON parse) and the
// attribution sweep on hand-built spans.
#include <gtest/gtest.h>

#include <cctype>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "metrics/phase_stats.h"
#include "obs/attribution.h"
#include "obs/trace.h"
#include "sim/scheduler.h"

namespace fabricsim::obs {
namespace {

// ---------------------------------------------------------------------------
// A deliberately small JSON parser — enough to *parse* (not just pattern
// match) the exported trace and assert its structure. Numbers parse as
// double; objects/arrays as maps/vectors.
struct Json {
  enum Kind { kNull, kBool, kNumber, kString, kArray, kObject } kind = kNull;
  bool b = false;
  double num = 0.0;
  std::string str;
  std::vector<Json> items;
  std::map<std::string, Json> fields;

  [[nodiscard]] bool Has(const std::string& k) const {
    return fields.count(k) > 0;
  }
  [[nodiscard]] const Json& At(const std::string& k) const {
    return fields.at(k);
  }
};

class JsonParser {
 public:
  explicit JsonParser(std::string text) : s_(std::move(text)) {}

  Json Parse() {
    Json v = ParseValue();
    SkipWs();
    EXPECT_EQ(i_, s_.size()) << "trailing garbage after JSON value";
    return v;
  }

  [[nodiscard]] bool Failed() const { return failed_; }

 private:
  void Fail(const std::string& why) {
    if (!failed_) ADD_FAILURE() << "JSON parse error at " << i_ << ": " << why;
    failed_ = true;
  }

  void SkipWs() {
    while (i_ < s_.size() && std::isspace(static_cast<unsigned char>(s_[i_]))) {
      ++i_;
    }
  }

  bool Consume(char c) {
    SkipWs();
    if (i_ < s_.size() && s_[i_] == c) {
      ++i_;
      return true;
    }
    return false;
  }

  Json ParseValue() {
    SkipWs();
    if (failed_ || i_ >= s_.size()) {
      Fail("unexpected end of input");
      return {};
    }
    const char c = s_[i_];
    if (c == '{') return ParseObject();
    if (c == '[') return ParseArray();
    if (c == '"') return ParseString();
    if (c == 't' || c == 'f') return ParseBool();
    if (c == 'n') return ParseNull();
    return ParseNumber();
  }

  Json ParseObject() {
    Json v;
    v.kind = Json::kObject;
    Consume('{');
    if (Consume('}')) return v;
    do {
      SkipWs();
      Json key = ParseString();
      if (!Consume(':')) Fail("expected ':'");
      v.fields[key.str] = ParseValue();
    } while (!failed_ && Consume(','));
    if (!Consume('}')) Fail("expected '}'");
    return v;
  }

  Json ParseArray() {
    Json v;
    v.kind = Json::kArray;
    Consume('[');
    if (Consume(']')) return v;
    do {
      v.items.push_back(ParseValue());
    } while (!failed_ && Consume(','));
    if (!Consume(']')) Fail("expected ']'");
    return v;
  }

  Json ParseString() {
    Json v;
    v.kind = Json::kString;
    if (!Consume('"')) {
      Fail("expected '\"'");
      return v;
    }
    while (i_ < s_.size() && s_[i_] != '"') {
      char c = s_[i_++];
      if (c == '\\' && i_ < s_.size()) {
        const char esc = s_[i_++];
        switch (esc) {
          case 'n': c = '\n'; break;
          case 't': c = '\t'; break;
          case 'r': c = '\r'; break;
          case 'b': c = '\b'; break;
          case 'f': c = '\f'; break;
          case 'u': {
            // \uXXXX — tests only use ASCII control escapes.
            if (i_ + 4 > s_.size()) {
              Fail("bad \\u escape");
              return v;
            }
            c = static_cast<char>(std::stoi(s_.substr(i_, 4), nullptr, 16));
            i_ += 4;
            break;
          }
          default: c = esc; break;
        }
      }
      v.str += c;
    }
    if (!Consume('"')) Fail("unterminated string");
    return v;
  }

  Json ParseBool() {
    Json v;
    v.kind = Json::kBool;
    if (s_.compare(i_, 4, "true") == 0) {
      v.b = true;
      i_ += 4;
    } else if (s_.compare(i_, 5, "false") == 0) {
      i_ += 5;
    } else {
      Fail("bad literal");
    }
    return v;
  }

  Json ParseNull() {
    Json v;
    if (s_.compare(i_, 4, "null") == 0) {
      i_ += 4;
    } else {
      Fail("bad literal");
    }
    return v;
  }

  Json ParseNumber() {
    Json v;
    v.kind = Json::kNumber;
    std::size_t end = i_;
    while (end < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[end])) ||
            s_[end] == '-' || s_[end] == '+' || s_[end] == '.' ||
            s_[end] == 'e' || s_[end] == 'E')) {
      ++end;
    }
    if (end == i_) {
      Fail("expected number");
      return v;
    }
    v.num = std::stod(s_.substr(i_, end - i_));
    i_ = end;
    return v;
  }

  std::string s_;  // held by value so temporaries are safe to pass
  std::size_t i_ = 0;
  bool failed_ = false;
};

// ---------------------------------------------------------------------------
// Tracer

TEST(Tracer, PidForIsStablePerName) {
  Tracer t;
  const int a = t.PidFor("machine-a");
  const int b = t.PidFor("machine-b");
  EXPECT_NE(a, b);
  EXPECT_EQ(t.PidFor("machine-a"), a);
}

TEST(Tracer, RecordStoresSpanAndClampsBackwardEnd) {
  Tracer t;
  const int pid = t.PidFor("m");
  t.Record(pid, SpanKind::kService, "work", "tx1", 100, 300);
  t.Record(pid, SpanKind::kWire, "hop", "tx1", 500, 400);  // end < begin
  ASSERT_EQ(t.Spans().size(), 2u);
  EXPECT_EQ(t.Spans()[0].begin, 100);
  EXPECT_EQ(t.Spans()[0].end, 300);
  EXPECT_GE(t.Spans()[1].end, t.Spans()[1].begin);  // clamped, never negative
}

TEST(Tracer, RecordResourceSpanSplitsQueueAndService) {
  Tracer t;
  const int pid = t.PidFor("m");
  // Enqueued at 100, finished at 400, of which 250 was service: the queue
  // half is [100, 150], the service half [150, 400].
  t.RecordResourceSpan(pid, "job", "tx1", 100, 400, 250);
  ASSERT_EQ(t.Spans().size(), 2u);
  const Span& queue = t.Spans()[0];
  const Span& service = t.Spans()[1];
  EXPECT_EQ(queue.kind, SpanKind::kQueue);
  EXPECT_EQ(queue.begin, 100);
  EXPECT_EQ(queue.end, 150);
  EXPECT_EQ(service.kind, SpanKind::kService);
  EXPECT_EQ(service.begin, 150);
  EXPECT_EQ(service.end, 400);
}

TEST(Tracer, RecordResourceSpanSkipsDegenerateQueueHalf) {
  Tracer t;
  const int pid = t.PidFor("m");
  // No waiting: service covers the whole interval, no queue span emitted.
  t.RecordResourceSpan(pid, "job", "tx1", 100, 400, 300);
  ASSERT_EQ(t.Spans().size(), 1u);
  EXPECT_EQ(t.Spans()[0].kind, SpanKind::kService);
}

TEST(Tracer, BeginEndFirstWinsAndUnmatchedEndIsNoop) {
  Tracer t;
  const int pid = t.PidFor("m");
  t.End("tx1", "phase", 50);  // no open span: ignored
  EXPECT_EQ(t.EventCount(), 0u);

  t.Begin(pid, SpanKind::kQueue, "phase", "tx1", 100);
  t.Begin(pid, SpanKind::kQueue, "phase", "tx1", 999);  // duplicate: ignored
  t.End("tx1", "phase", 300);
  t.End("tx1", "phase", 888);  // already closed: ignored
  ASSERT_EQ(t.Spans().size(), 1u);
  EXPECT_EQ(t.Spans()[0].begin, 100);
  EXPECT_EQ(t.Spans()[0].end, 300);

  // Same name under a different key is an independent span.
  t.Begin(pid, SpanKind::kQueue, "phase", "tx2", 400);
  t.End("tx2", "phase", 500);
  EXPECT_EQ(t.Spans().size(), 2u);
}

TEST(Tracer, SpansByKeyGroupsPerTransaction) {
  Tracer t;
  const int pid = t.PidFor("m");
  t.Record(pid, SpanKind::kService, "a", "tx1", 0, 10);
  t.Record(pid, SpanKind::kService, "b", "tx1", 10, 20);
  t.Record(pid, SpanKind::kService, "a", "tx2", 0, 5);
  const auto by_key = t.SpansByKey();
  ASSERT_EQ(by_key.size(), 2u);
  EXPECT_EQ(by_key.at("tx1").size(), 2u);
  EXPECT_EQ(by_key.at("tx2").size(), 1u);
}

// The acceptance check: the export is *valid JSON* — an array of events each
// carrying name/ph/ts/dur/pid/tid — not just a string that looks like one.
TEST(Tracer, ChromeTraceExportParsesWithRequiredFields) {
  Tracer t;
  const int p0 = t.PidFor("peer-machine0");
  const int p1 = t.PidFor("orderer-machine0");
  t.Record(p0, SpanKind::kService, "endorse.execute", "tx1", 1000, 3500);
  t.Record(p1, SpanKind::kQueue, "order.consensus", "tx1", 3500, 9000);
  t.Record(p0, SpanKind::kWire, "rpc \"quoted\"\nname", "tx1", 0, 1000);

  std::ostringstream os;
  t.ExportChromeTrace(os);
  const std::string text = os.str();

  JsonParser parser(text);
  const Json root = parser.Parse();
  ASSERT_FALSE(parser.Failed()) << text;
  ASSERT_EQ(root.kind, Json::kArray);

  std::size_t complete_events = 0;
  std::size_t metadata_events = 0;
  bool saw_escaped_name = false;
  for (const Json& ev : root.items) {
    ASSERT_EQ(ev.kind, Json::kObject);
    ASSERT_TRUE(ev.Has("ph"));
    ASSERT_TRUE(ev.Has("name"));
    ASSERT_TRUE(ev.Has("pid"));
    const std::string ph = ev.At("ph").str;
    if (ph == "M") {
      ++metadata_events;
      continue;
    }
    ASSERT_EQ(ph, "X");
    ++complete_events;
    // Required complete-event fields, with numeric ts/dur/pid/tid.
    for (const char* field : {"ts", "dur", "pid", "tid"}) {
      ASSERT_TRUE(ev.Has(field)) << "missing " << field;
      EXPECT_EQ(ev.At(field).kind, Json::kNumber) << field;
    }
    EXPECT_GE(ev.At("dur").num, 0.0);
    if (ev.At("name").str == "rpc \"quoted\"\nname") saw_escaped_name = true;
  }
  EXPECT_EQ(complete_events, 3u);
  EXPECT_GT(metadata_events, 0u);  // process_name / thread_name records
  EXPECT_TRUE(saw_escaped_name);   // quoting round-trips through the escaper

  // Timestamps are microseconds: the 1000 ns -> 3500 ns span is ts=1, dur=2.5.
  bool checked_scale = false;
  for (const Json& ev : root.items) {
    if (ev.At("ph").str == "X" && ev.At("name").str == "endorse.execute") {
      EXPECT_DOUBLE_EQ(ev.At("ts").num, 1.0);
      EXPECT_DOUBLE_EQ(ev.At("dur").num, 2.5);
      checked_scale = true;
    }
  }
  EXPECT_TRUE(checked_scale);
}

TEST(Tracer, EmptyTraceExportsValidEmptyishJson) {
  Tracer t;
  std::ostringstream os;
  t.ExportChromeTrace(os);
  JsonParser parser(os.str());
  const Json root = parser.Parse();
  ASSERT_FALSE(parser.Failed());
  EXPECT_EQ(root.kind, Json::kArray);
}

// ---------------------------------------------------------------------------
// Attribution

TEST(Attribution, DecomposesPhaseAndResolvesOverlapByPriority) {
  Tracer tracer;
  metrics::TxTracker tracker;
  const int pid = tracer.PidFor("m");

  // One transaction: execute [0, 1000], order [1000, 3000],
  // validate [3000, 4000] (ns).
  tracker.MarkSubmitted("tx", 0);
  tracker.MarkEndorsed("tx", 1000);
  tracker.MarkOrdered("tx", 3000);
  tracker.MarkCommitted("tx", 4000, proto::ValidationCode::kValid);

  // Execute: wire [0,400], service [200,700] (overlap resolves to service),
  // nothing over [700,1000] -> other.
  tracer.Record(pid, SpanKind::kWire, "w", "tx", 0, 400);
  tracer.Record(pid, SpanKind::kService, "s", "tx", 200, 700);
  // Order: queue covers everything, but the validate-side service span below
  // reaches back into [2500, 3000] and outranks it there.
  tracer.Record(pid, SpanKind::kQueue, "q", "tx", 1000, 3000);
  // Validate: span overhangs both phase ends; per phase it is clipped.
  tracer.Record(pid, SpanKind::kService, "v", "tx", 2500, 4500);

  const AttributionReport r =
      BuildAttribution(tracer, tracker, 0, sim::FromSeconds(1));

  EXPECT_EQ(r.execute.tx_count, 1u);
  EXPECT_NEAR(r.execute.mean_total_ms, 1000e-6, 1e-9);
  EXPECT_NEAR(r.execute.service_ms, 500e-6, 1e-9);  // [200,700]
  EXPECT_NEAR(r.execute.wire_ms, 200e-6, 1e-9);     // [0,200] only
  EXPECT_NEAR(r.execute.other_ms, 300e-6, 1e-9);    // [700,1000]
  EXPECT_EQ(r.execute.dominant, "service");

  EXPECT_NEAR(r.order.queue_ms, 1500e-6, 1e-9);    // [1000,2500]
  EXPECT_NEAR(r.order.service_ms, 500e-6, 1e-9);   // [2500,3000] from "v"
  EXPECT_EQ(r.order.dominant, "queue");

  EXPECT_NEAR(r.validate.service_ms, 1000e-6, 1e-9);  // clipped
  EXPECT_NEAR(r.validate.other_ms, 0.0, 1e-9);

  // Components always sum to the phase total by construction of the sweep.
  for (const PhaseBreakdown* b : {&r.execute, &r.order, &r.validate}) {
    EXPECT_NEAR(b->service_ms + b->queue_ms + b->wire_ms + b->other_ms,
                b->mean_total_ms, 1e-9);
  }
}

TEST(Attribution, WindowRuleMatchesTrackerAndVerdictNamesResource) {
  Tracer tracer;
  metrics::TxTracker tracker;
  // Phase completes outside the window: excluded entirely.
  tracker.MarkSubmitted("out", 0);
  tracker.MarkEndorsed("out", sim::FromSeconds(20));
  // In-window transaction.
  tracker.MarkSubmitted("in", 0);
  tracker.MarkEndorsed("in", sim::FromSeconds(1));

  const std::vector<ResourceUsage> usage = {
      {"peer-machine0", "execute", 0.93},
      {"client-machine0", "execute", 0.10},
      {"orderer-machine0", "order", 0.50},
  };
  const AttributionReport r = BuildAttribution(
      tracer, tracker, 0, sim::FromSeconds(10), usage);
  EXPECT_EQ(r.execute.tx_count, 1u);
  EXPECT_NE(r.execute.verdict.find("peer-machine0"), std::string::npos);
  EXPECT_NE(r.execute.verdict.find("93%"), std::string::npos);
  // No order/validate completions -> explicit no-data verdicts.
  EXPECT_EQ(r.order.tx_count, 0u);
  EXPECT_EQ(r.order.verdict, "no data");
}

TEST(Attribution, PrintAttributionRendersAllPhases) {
  AttributionReport r;
  r.execute.tx_count = 10;
  r.execute.mean_total_ms = 2.0;
  r.execute.service_ms = 1.5;
  r.execute.dominant = "service";
  r.execute.verdict = "service-bound";
  std::ostringstream os;
  PrintAttribution(r, os, /*csv=*/true);
  const std::string out = os.str();
  EXPECT_NE(out.find("phase,txs,total_ms"), std::string::npos);
  EXPECT_NE(out.find("execute,10"), std::string::npos);
  EXPECT_NE(out.find("order,"), std::string::npos);
  EXPECT_NE(out.find("validate,"), std::string::npos);
}

}  // namespace
}  // namespace fabricsim::obs
