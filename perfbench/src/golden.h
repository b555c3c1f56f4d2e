// Reader for the committed bench/golden/*.txt reports. Only their markdown
// tables matter here: a cell is found by table index (in file order), the
// row's first cell and the column header. Values are compared as printed
// (Table::num, two decimals), so a result matches only if the figure binary
// would have printed the identical text.
#pragma once

#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

class Golden {
 public:
  /// nullptr when the file cannot be read or holds no table.
  static std::unique_ptr<Golden> load(const std::string& path) {
    std::ifstream is(path);
    if (!is) return nullptr;
    auto g = std::make_unique<Golden>();
    std::string line;
    bool in_table = false;
    while (std::getline(is, line)) {
      if (line.empty() || line[0] != '|') {
        in_table = false;
        continue;
      }
      std::vector<std::string> cells = split(line);
      if (!in_table) {
        g->tables_.push_back({cells, {}});
        in_table = true;
      } else if (!cells.empty() && cells[0].find_first_not_of('-') != std::string::npos) {
        g->tables_.back().rows.push_back(std::move(cells));
      }
    }
    if (g->tables_.empty()) return nullptr;
    return g;
  }

  std::optional<std::string> cell(std::size_t table, const std::string& key,
                                  const std::string& column) const {
    if (table >= tables_.size()) return std::nullopt;
    const Table& t = tables_[table];
    std::size_t col = 0;
    while (col < t.header.size() && t.header[col] != column) ++col;
    if (col == t.header.size()) return std::nullopt;
    for (const auto& row : t.rows)
      if (!row.empty() && row[0] == key && col < row.size()) return row[col];
    return std::nullopt;
  }

 private:
  struct Table {
    std::vector<std::string> header;
    std::vector<std::vector<std::string>> rows;
  };

  static std::vector<std::string> split(const std::string& line) {
    std::vector<std::string> out;
    std::size_t pos = 1;  // skip the leading '|'
    while (pos < line.size()) {
      const std::size_t bar = line.find('|', pos);
      if (bar == std::string::npos) break;
      const std::string raw = line.substr(pos, bar - pos);
      const std::size_t b = raw.find_first_not_of(' ');
      const std::size_t e = raw.find_last_not_of(' ');
      out.push_back(b == std::string::npos ? "" : raw.substr(b, e - b + 1));
      pos = bar + 1;
    }
    return out;
  }

  std::vector<Table> tables_;
};

/// Golden files of one run, loaded once and shared by every point.
class GoldenSet {
 public:
  explicit GoldenSet(std::string dir) : dir_(std::move(dir)) {}

  /// nullptr if the file is missing or unreadable.
  const Golden* get(const std::string& name) {
    auto it = files_.find(name);
    if (it == files_.end())
      it = files_.emplace(name, Golden::load(dir_ + "/" + name + ".txt")).first;
    return it->second.get();
  }

 private:
  std::string dir_;
  std::map<std::string, std::unique_ptr<Golden>> files_;
};

}  // namespace perfbench
