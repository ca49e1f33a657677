// Communication-compression frontier: accuracy vs bytes-on-wire for the
// gradient compression family (top-k sparsification, int8 quantization,
// layer-wise partial sync) on the Figure 8 workload (8 workers,
// heterogeneous network, ResNet18 profile on CIFAR10-sim).
//
// One panel per algorithm: the uncompressed baseline plus each compression
// variant, reporting derived wire bytes (net/wire_format.h — no hand-waved
// constants), the bytes reduction vs the baseline, and the accuracy delta.
// The headline is the acceptance reading: the best reduction among variants
// that stay within 1% accuracy of their uncompressed run.
//
// All numbers here are virtual-time results and are bit-identical across
// {threads, shards, event queue} — this bench's
// stdout is safe to diff across execution points. Set NETMAX_COMM_JSON=path
// to also write the report as JSON — BENCH_comm.json in the repo root is a
// committed SMOKE-mode snapshot the CI perf lane gates bytes_sent against
// (smoke because that is what CI runs, and wire bytes are deterministic, so
// smoke-to-smoke comparison is exact; see README for full-mode numbers).

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/table.h"
#include "ml/compression.h"

namespace netmax {
namespace {

struct VariantRow {
  std::string algorithm;
  std::string spec;
  int64_t messages = 0;
  int64_t bytes_sent = 0;
  int64_t bytes_saved = 0;
  double reduction = 1.0;       // baseline bytes / variant bytes
  double accuracy = 0.0;
  double accuracy_delta = 0.0;  // variant accuracy - baseline accuracy
  double final_loss = 0.0;
};

// The compression family swept for every algorithm. "none" must come first:
// it anchors the reduction and accuracy deltas for its panel.
const std::vector<std::string>& SpecGrid() {
  static const std::vector<std::string> kSpecs = {
      "none", "topk:0.1", "topk:0.05", "int8", "layerwise:2"};
  return kSpecs;
}

StatusOr<std::vector<VariantRow>> RunPanel(const std::string& algorithm,
                                           std::ostream& os) {
  std::vector<core::ExperimentConfig> configs;
  for (const std::string& spec_text : SpecGrid()) {
    core::ExperimentConfig config = bench::PaperBaseConfig();
    NETMAX_ASSIGN_OR_RETURN(config.compress,
                            ml::ParseCompressionSpec(spec_text));
    configs.push_back(config);
  }
  NETMAX_ASSIGN_OR_RETURN(
      const auto results,
      bench::RunConfigs(algorithm, configs, SpecGrid()));
  const core::RunResult& baseline = results.front().result;
  std::vector<VariantRow> rows;
  TablePrinter table({"compress", "messages", "bytes_sent", "bytes_saved",
                      "reduction", "accuracy", "acc_delta", "final_loss"});
  for (const auto& entry : results) {
    VariantRow row;
    row.algorithm = algorithm;
    row.spec = entry.name;
    row.messages = entry.result.messages_sent;
    row.bytes_sent = entry.result.bytes_sent;
    row.bytes_saved = entry.result.bytes_saved;
    row.reduction = entry.result.bytes_sent > 0
                        ? static_cast<double>(baseline.bytes_sent) /
                              static_cast<double>(entry.result.bytes_sent)
                        : 1.0;
    row.accuracy = entry.result.final_accuracy;
    row.accuracy_delta =
        entry.result.final_accuracy - baseline.final_accuracy;
    row.final_loss = entry.result.final_train_loss;
    table.AddRow({row.spec, std::to_string(row.messages),
                  std::to_string(row.bytes_sent),
                  std::to_string(row.bytes_saved), Fmt(row.reduction, 2),
                  Fmt(row.accuracy, 4), Fmt(row.accuracy_delta, 4),
                  Fmt(row.final_loss, 4)});
    rows.push_back(std::move(row));
  }
  const std::string title = "Comm frontier (" + algorithm + ")";
  os << "\n== " << title << " ==\n";
  table.Print(os);
  table.PrintCsv(os, title);
  return rows;
}

std::string JsonReport(bool smoke, const std::vector<VariantRow>& rows,
                       const VariantRow* headline) {
  std::ostringstream os;
  os << "{\n";
  os << "  \"bench\": \"bench_comm_frontier\",\n";
  os << "  \"smoke\": " << (smoke ? "true" : "false") << ",\n";
  os << "  \"rows\": [\n";
  for (size_t i = 0; i < rows.size(); ++i) {
    const VariantRow& r = rows[i];
    os << "    {\"algorithm\": \"" << r.algorithm << "\", \"compress\": \""
       << r.spec << "\", \"messages\": " << r.messages
       << ", \"bytes_sent\": " << r.bytes_sent
       << ", \"bytes_saved\": " << r.bytes_saved
       << ", \"reduction\": " << Fmt(r.reduction, 3)
       << ", \"accuracy\": " << Fmt(r.accuracy, 4)
       << ", \"accuracy_delta\": " << Fmt(r.accuracy_delta, 4) << "}"
       << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  os << "  ],\n";
  if (headline != nullptr) {
    os << "  \"headline\": {\"algorithm\": \"" << headline->algorithm
       << "\", \"compress\": \"" << headline->spec
       << "\", \"reduction\": " << Fmt(headline->reduction, 3)
       << ", \"accuracy_delta\": " << Fmt(headline->accuracy_delta, 4)
       << ", \"meets_4x_within_1pct\": "
       << (headline->reduction >= 4.0 ? "true" : "false") << "}\n";
  } else {
    os << "  \"headline\": null\n";
  }
  os << "}\n";
  return os.str();
}

Status Run() {
  // The gossip family exercises the per-send path, allreduce the ring-chunk
  // path, and netmax the directed consensus path — together they cover every
  // wire-accounting shape in the engine set.
  const std::vector<std::string> algorithms = {"netmax", "gossip",
                                               "allreduce"};
  std::vector<VariantRow> rows;
  for (const std::string& algorithm : algorithms) {
    NETMAX_ASSIGN_OR_RETURN(const auto panel, RunPanel(algorithm, std::cout));
    rows.insert(rows.end(), panel.begin(), panel.end());
  }

  // Headline: the best bytes reduction among compressed variants whose
  // accuracy stays within 1% (0.01 absolute) of their own uncompressed run.
  const VariantRow* headline = nullptr;
  for (const VariantRow& row : rows) {
    if (row.spec == "none") continue;
    if (row.accuracy_delta < -0.01) continue;
    if (headline == nullptr || row.reduction > headline->reduction) {
      headline = &row;
    }
  }
  TablePrinter summary({"algorithm", "compress", "reduction", "acc_delta",
                        "meets_4x_within_1pct"});
  if (headline != nullptr) {
    summary.AddRow({headline->algorithm, headline->spec,
                    Fmt(headline->reduction, 2),
                    Fmt(headline->accuracy_delta, 4),
                    headline->reduction >= 4.0 ? "yes" : "no"});
  }
  std::cout << "\n== Comm frontier headline (best reduction within 1% "
               "accuracy of the uncompressed run) ==\n";
  summary.Print(std::cout);
  summary.PrintCsv(std::cout, "Comm frontier headline");

  const std::string json = JsonReport(bench::SmokeMode(), rows, headline);
  const char* json_path = std::getenv("NETMAX_COMM_JSON");
  if (json_path != nullptr && json_path[0] != '\0') {
    std::ofstream out(json_path);
    if (!out) {
      return InvalidArgumentError(std::string("cannot write JSON to ") +
                                  json_path);
    }
    out << json;
  }
  std::cout << "\n#JSON bench_comm_frontier\n" << json << "#END\n";
  return Status::Ok();
}

}  // namespace
}  // namespace netmax

int main(int argc, char** argv) {
  return netmax::bench::BenchMain(argc, argv, [] { return netmax::Run(); });
}
