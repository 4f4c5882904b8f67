#include "core/csv.h"

#include <cstdio>

#include "common/env.h"

namespace sgxb::core {

Result<CsvWriter> CsvWriter::Open(const std::string& path) {
  std::ofstream stream(path, std::ios::trunc);
  if (!stream.is_open()) {
    return Status::InvalidArgument("cannot open CSV file: " + path);
  }
  return CsvWriter(std::move(stream));
}

std::string CsvWriter::EscapeCell(const std::string& cell) {
  bool needs_quotes = cell.find_first_of(",\"\n") != std::string::npos;
  if (!needs_quotes) return cell;
  std::string out = "\"";
  for (char c : cell) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

Status CsvWriter::WriteRow(const std::vector<std::string>& cells) {
  for (size_t i = 0; i < cells.size(); ++i) {
    if (i > 0) stream_ << ',';
    stream_ << EscapeCell(cells[i]);
  }
  stream_ << '\n';
  if (!stream_.good()) return Status::Internal("CSV write failed");
  return Status::OK();
}

Status CsvWriter::Close() {
  stream_.flush();
  if (!stream_.good()) return Status::Internal("CSV flush failed");
  stream_.close();
  return Status::OK();
}

std::optional<CsvWriter> MaybeCsvFor(const std::string& experiment_id) {
  const auto dir = EnvString("SGXBENCH_CSV_DIR");
  if (!dir.has_value() || dir->empty()) return std::nullopt;
  std::string path = *dir + "/" + experiment_id + ".csv";
  auto writer = CsvWriter::Open(path);
  if (!writer.ok()) {
    std::fprintf(stderr, "CSV export disabled: %s\n",
                 writer.status().ToString().c_str());
    return std::nullopt;
  }
  return std::move(writer).value();
}

}  // namespace sgxb::core
