#include "core/report.h"

#include <cstdio>
#include <cstdlib>

#include "core/csv.h"

namespace sgxb::core {

void PrintExperimentHeader(const std::string& id,
                           const std::string& description) {
  std::printf("\n");
  std::printf(
      "===========================================================\n");
  std::printf("%s — %s\n", id.c_str(), description.c_str());
  std::printf(
      "===========================================================\n");
}

void PrintNote(const std::string& note) {
  std::printf("  note: %s\n", note.c_str());
}

TablePrinter::TablePrinter(std::vector<std::string> columns)
    : columns_(std::move(columns)) {}

void TablePrinter::AddRow(std::vector<std::string> cells) {
  if (cells.size() != columns_.size()) {
    std::fprintf(stderr, "TablePrinter: row has %zu cells, expected %zu\n",
                 cells.size(), columns_.size());
    std::abort();
  }
  rows_.push_back(std::move(cells));
}

void TablePrinter::Print() const {
  std::vector<size_t> widths(columns_.size());
  for (size_t c = 0; c < columns_.size(); ++c) {
    widths[c] = columns_[c].size();
    for (const auto& row : rows_) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  auto print_row = [&](const std::vector<std::string>& cells) {
    std::printf("  ");
    for (size_t c = 0; c < cells.size(); ++c) {
      std::printf("%-*s  ", static_cast<int>(widths[c]), cells[c].c_str());
    }
    std::printf("\n");
  };
  print_row(columns_);
  std::vector<std::string> rule;
  for (size_t c = 0; c < columns_.size(); ++c) {
    rule.push_back(std::string(widths[c], '-'));
  }
  print_row(rule);
  for (const auto& row : rows_) print_row(row);
}

void TablePrinter::ExportCsv(const std::string& experiment_id) const {
  std::optional<CsvWriter> csv = MaybeCsvFor(experiment_id);
  if (!csv.has_value()) return;
  csv->WriteRow(columns_);
  for (const auto& row : rows_) csv->WriteRow(row);
  Status st = csv->Close();
  if (!st.ok()) {
    std::fprintf(stderr, "CSV export failed: %s\n", st.ToString().c_str());
  }
}

namespace {
std::string Format(double value, const char* unit, double k1, double k2,
                   double k3, const char* n1, const char* n2,
                   const char* n3) {
  char buf[64];
  if (value >= k3) {
    std::snprintf(buf, sizeof(buf), "%.2f %s%s", value / k3, n3, unit);
  } else if (value >= k2) {
    std::snprintf(buf, sizeof(buf), "%.2f %s%s", value / k2, n2, unit);
  } else if (value >= k1) {
    std::snprintf(buf, sizeof(buf), "%.2f %s%s", value / k1, n1, unit);
  } else {
    std::snprintf(buf, sizeof(buf), "%.0f %s", value, unit);
  }
  return buf;
}
}  // namespace

std::string FormatRowsPerSec(double rows_per_sec) {
  return Format(rows_per_sec, "rows/s", 1e3, 1e6, 1e9, "K ", "M ", "G ");
}

std::string FormatBytesPerSec(double bytes_per_sec) {
  return Format(bytes_per_sec, "B/s", 1e3, 1e6, 1e9, "K", "M", "G");
}

std::string FormatNanos(double ns) {
  char buf[64];
  if (ns >= 1e9) {
    std::snprintf(buf, sizeof(buf), "%.3f s", ns / 1e9);
  } else if (ns >= 1e6) {
    std::snprintf(buf, sizeof(buf), "%.2f ms", ns / 1e6);
  } else if (ns >= 1e3) {
    std::snprintf(buf, sizeof(buf), "%.2f us", ns / 1e3);
  } else {
    std::snprintf(buf, sizeof(buf), "%.0f ns", ns);
  }
  return buf;
}

std::string FormatBytes(double bytes) {
  char buf[64];
  if (bytes >= double{1ull << 30}) {
    std::snprintf(buf, sizeof(buf), "%.1f GiB", bytes / (1ull << 30));
  } else if (bytes >= double{1ull << 20}) {
    std::snprintf(buf, sizeof(buf), "%.1f MiB", bytes / (1ull << 20));
  } else if (bytes >= 1024) {
    std::snprintf(buf, sizeof(buf), "%.1f KiB", bytes / 1024);
  } else {
    std::snprintf(buf, sizeof(buf), "%.0f B", bytes);
  }
  return buf;
}

std::string FormatRel(double ratio) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2fx", ratio);
  return buf;
}

}  // namespace sgxb::core
