// The capability cross-check (docs/PORTING.md, "The ExecutionBackend
// layer"): one declarative table in src/machdep/backend.hpp drives
//
//   (a) the runtime's construct-rejection diagnostics,
//   (b) forcelint R7's per-model compatibility matrix, and
//   (c) the capability table embedded in docs/PORTING.md.
//
// This suite proves the three agree cell for cell, so a table edit that
// forgets one consumer fails here instead of drifting silently.
#include <gtest/gtest.h>

#include <cctype>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "core/askfor.hpp"
#include "core/async.hpp"
#include "core/env.hpp"
#include "core/reduce.hpp"
#include "machdep/backend.hpp"
#include "preproc/lint.hpp"
#include "util/check.hpp"

namespace fc = force::core;
namespace fp = force::preproc;
namespace md = force::machdep;

namespace {

fc::ForceConfig config_for(md::ProcessModel model) {
  fc::ForceConfig cfg;
  cfg.nproc = 2;
  cfg.machine = "native";
  if (model == md::ProcessModel::kOsFork) cfg.process_model = "os-fork";
  if (model == md::ProcessModel::kCluster) cfg.process_model = "cluster";
  return cfg;
}

std::string trimmed(const std::string& s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b])) != 0) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1])) != 0) --e;
  return s.substr(b, e - b);
}

}  // namespace

// --- the table itself -------------------------------------------------------

TEST(CapabilityTable, RowsAreUniqueAndThreadAcceptsEverything) {
  std::set<std::string> ids;
  for (const md::CapabilityRow& row : md::capability_table()) {
    // The thread substrate is the reference semantics: every construct
    // must be supported there, narrowing only ever happens on os-fork
    // and cluster.
    EXPECT_TRUE(row.thread) << row.id;
    EXPECT_TRUE(ids.insert(row.id).second) << "duplicate id " << row.id;
    EXPECT_EQ(&md::capability_row(row.cap), &row);
  }
  EXPECT_FALSE(md::capability_table().empty());
}

TEST(CapabilityTable, ParseRoundTripsEveryModelName) {
  for (const md::ProcessModel m : md::all_process_models()) {
    md::ProcessModel parsed{};
    ASSERT_TRUE(md::parse_process_model(md::process_model_name(m), &parsed));
    EXPECT_EQ(parsed, m);
  }
  md::ProcessModel parsed{};
  EXPECT_TRUE(md::parse_process_model("machine", &parsed));
  EXPECT_EQ(parsed, md::ProcessModel::kThread);
  EXPECT_FALSE(md::parse_process_model("bogus", &parsed));
  EXPECT_NE(std::string(md::process_model_valid_set()).find("os-fork"),
            std::string::npos);
}

// --- (a) the runtime, per model ---------------------------------------------

class BackendCapabilityTest
    : public ::testing::TestWithParam<md::ProcessModel> {};

TEST_P(BackendCapabilityTest, EnvironmentRejectionsMatchTheTable) {
  const md::ProcessModel model = GetParam();
  fc::ForceEnvironment env(config_for(model));
  EXPECT_EQ(env.process_model(), model);
  EXPECT_STREQ(env.backend().name(), md::process_model_name(model));
  for (const md::CapabilityRow& row : md::capability_table()) {
    const bool supported = md::backend_supports(model, row.cap);
    EXPECT_EQ(env.supports(row.cap), supported) << row.id;
    if (supported) {
      EXPECT_NO_THROW(env.require(row.cap, row.construct, "probe-site"))
          << row.id;
      continue;
    }
    try {
      env.require(row.cap, row.construct, "probe-site");
      FAIL() << row.id << " must be rejected under "
             << md::process_model_name(model);
    } catch (const force::util::CheckError& e) {
      // The uniform diagnostic names the construct, site, backend,
      // capability id and the table's reason.
      const std::string what = e.what();
      EXPECT_NE(what.find(row.construct), std::string::npos) << what;
      EXPECT_NE(what.find("'probe-site'"), std::string::npos) << what;
      EXPECT_NE(what.find(md::process_model_name(model)), std::string::npos)
          << what;
      EXPECT_NE(what.find(std::string("[capability ") + row.id + "]"),
                std::string::npos)
          << what;
      EXPECT_NE(what.find(row.reason), std::string::npos) << what;
    }
  }
}

TEST_P(BackendCapabilityTest, NonTrivialPayloadConstructorsMatchTheTable) {
  const md::ProcessModel model = GetParam();
  fc::ForceEnvironment env(config_for(model));
  const bool ok =
      md::backend_supports(model, md::Capability::kNonTrivialPayloads);
  if (ok) {
    EXPECT_NO_THROW(fc::Askfor<std::string>(env, "cap-probe/askfor-nt"));
    EXPECT_NO_THROW(fc::Async<std::string>(env, "cap-probe/async-nt"));
    EXPECT_NO_THROW(fc::Reduction<std::string>(env, 2, "cap-probe/reduce-nt"));
  } else {
    EXPECT_THROW(fc::Askfor<std::string>(env, "cap-probe/askfor-nt"),
                 force::util::CheckError);
    EXPECT_THROW(fc::Async<std::string>(env, "cap-probe/async-nt"),
                 force::util::CheckError);
    EXPECT_THROW(fc::Reduction<std::string>(env, 2, "cap-probe/reduce-nt"),
                 force::util::CheckError);
  }
  // Trivially copyable payloads construct on every backend.
  EXPECT_NO_THROW(fc::Askfor<std::int64_t>(env, "cap-probe/askfor-tc"));
  EXPECT_NO_THROW(fc::Async<std::int64_t>(env, "cap-probe/async-tc"));
  EXPECT_NO_THROW(
      fc::Reduction<std::int64_t>(env, 2, "cap-probe/reduce-tc"));
}

TEST_P(BackendCapabilityTest, IsfullMatchesTheTable) {
  const md::ProcessModel model = GetParam();
  fc::ForceEnvironment env(config_for(model));
  fc::Async<std::int64_t> cell(env, "cap-probe/isfull");
  if (md::backend_supports(model, md::Capability::kIsfull)) {
    EXPECT_NO_THROW((void)cell.is_full());
  } else {
    EXPECT_THROW((void)cell.is_full(), force::util::CheckError);
  }
}

TEST_P(BackendCapabilityTest, ConfigurationRejectionsMatchTheTable) {
  const md::ProcessModel model = GetParam();
  const auto construct_with = [&](void (*tweak)(fc::ForceConfig&)) {
    fc::ForceConfig cfg = config_for(model);
    tweak(cfg);
    fc::ForceEnvironment env(cfg);
  };
  const auto expect_gate = [&](md::Capability cap,
                               void (*tweak)(fc::ForceConfig&)) {
    if (md::backend_supports(model, cap)) {
      EXPECT_NO_THROW(construct_with(tweak)) << md::capability_row(cap).id;
    } else {
      EXPECT_THROW(construct_with(tweak), force::util::CheckError)
          << md::capability_row(cap).id;
    }
  };
  expect_gate(md::Capability::kSentry,
              [](fc::ForceConfig& c) { c.sentry = true; });
  expect_gate(md::Capability::kTrace,
              [](fc::ForceConfig& c) { c.trace = true; });
  expect_gate(md::Capability::kTeamPool,
              [](fc::ForceConfig& c) { c.team_pool = true; });
  expect_gate(md::Capability::kNmScheduling,
              [](fc::ForceConfig& c) { c.pool_workers = 2; });
}

INSTANTIATE_TEST_SUITE_P(
    AllModels, BackendCapabilityTest,
    ::testing::ValuesIn(md::all_process_models()),
    [](const ::testing::TestParamInfo<md::ProcessModel>& info) {
      std::string name = md::process_model_name(info.param);
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

// --- (b) forcelint R7, per model --------------------------------------------

namespace {

constexpr const char* kPcaseSource =
    "Force S\n"
    "End declarations\n"
    "Pcase\n"
    "Usect\n"
    "  ;\n"
    "End pcase\n"
    "Join\n";

constexpr const char* kNonScalarAskforSource =
    "Force S\n"
    "Private integer T\n"
    "End declarations\n"
    "Seedwork 10 1\n"
    "Askfor 10 T of std::string\n"
    "10 End Askfor\n"
    "Join\n";

constexpr const char* kIsfullSource =
    "Force S\n"
    "Async real CELL\n"
    "Private integer F\n"
    "End declarations\n"
    "Produce CELL = 1.0\n"
    "Isfull CELL into F\n"
    "Join\n";

struct LintCase {
  const char* name;
  const char* source;
  md::Capability cap;
};

}  // namespace

TEST(LintMatrixAgreesWithTable, RejectedConstructsMatchPerModel) {
  const LintCase cases[] = {
      {"pcase", kPcaseSource, md::Capability::kPcase},
      {"askfor-payload", kNonScalarAskforSource,
       md::Capability::kNonTrivialPayloads},
      {"isfull", kIsfullSource, md::Capability::kIsfull},
  };
  for (const LintCase& c : cases) {
    fp::DiagSink diags;
    const fp::LintResult res = fp::run_forcelint(c.source, {}, diags);
    const md::CapabilityRow& row = md::capability_row(c.cap);
    for (const md::ProcessModel m : md::all_process_models()) {
      const std::string model = md::process_model_name(m);
      EXPECT_EQ(res.compatible_with(model), md::backend_supports(m, c.cap))
          << c.name << " x " << model;
    }
    // The R7 reasons quote the capability row verbatim, so the static
    // matrix cannot drift from the runtime diagnostic.
    bool quotes_row = false;
    for (const fp::ModelViolation& v : res.model_violations) {
      if (v.reason.find(std::string("[capability ") + row.id + "]") !=
              std::string::npos &&
          v.reason.find(row.reason) != std::string::npos) {
        quotes_row = true;
      }
    }
    EXPECT_TRUE(quotes_row) << c.name;
  }
}

TEST(LintMatrixAgreesWithTable, CleanProgramIsCompatibleEverywhere) {
  fp::DiagSink diags;
  const fp::LintResult res = fp::run_forcelint(
      "Force S\n"
      "End declarations\n"
      "Barrier\n"
      "End barrier\n"
      "Join\n",
      {}, diags);
  EXPECT_TRUE(res.model_violations.empty());
  for (const md::ProcessModel m : md::all_process_models()) {
    EXPECT_TRUE(res.compatible_with(md::process_model_name(m)));
  }
}

TEST(LintMatrixAgreesWithTable, LintModelListMatchesBackendList) {
  const std::vector<std::string>& lint_models = fp::lint_process_models();
  const std::vector<md::ProcessModel>& models = md::all_process_models();
  ASSERT_EQ(lint_models.size(), models.size());
  for (std::size_t i = 0; i < models.size(); ++i) {
    EXPECT_EQ(lint_models[i], md::process_model_name(models[i]));
  }
}

// --- (c) the docs/PORTING.md table ------------------------------------------

TEST(PortingDoc, EmbeddedMatrixMatchesTheGenerator) {
  std::ifstream in(FORCE_PORTING_MD, std::ios::binary);
  ASSERT_TRUE(in.good()) << "cannot open " << FORCE_PORTING_MD;
  std::ostringstream ss;
  ss << in.rdbuf();
  const std::string doc = ss.str();

  const std::string begin_marker = "<!-- capability-matrix:begin -->";
  const std::string end_marker = "<!-- capability-matrix:end -->";
  const std::size_t b = doc.find(begin_marker);
  const std::size_t e = doc.find(end_marker);
  ASSERT_NE(b, std::string::npos) << "begin marker missing from PORTING.md";
  ASSERT_NE(e, std::string::npos) << "end marker missing from PORTING.md";
  ASSERT_LT(b, e);
  const std::string embedded =
      doc.substr(b + begin_marker.size(), e - (b + begin_marker.size()));
  EXPECT_EQ(trimmed(embedded), trimmed(md::capability_matrix_markdown()))
      << "docs/PORTING.md capability matrix is stale; regenerate it from "
         "machdep::capability_matrix_markdown()";
}
