#include "support/table.h"

#include <algorithm>

namespace autovac {

std::string TextTable::Render() const {
  std::vector<size_t> widths(header_.size());
  for (size_t i = 0; i < header_.size(); ++i) widths[i] = header_[i].size();
  for (const auto& row : rows_) {
    for (size_t i = 0; i < row.size(); ++i) {
      if (i >= widths.size()) widths.resize(i + 1, 0);
      widths[i] = std::max(widths[i], row[i].size());
    }
  }

  auto render_row = [&](const std::vector<std::string>& cells) {
    std::string line;
    for (size_t i = 0; i < widths.size(); ++i) {
      const std::string& cell = i < cells.size() ? cells[i] : std::string();
      line += "| " + cell + std::string(widths[i] - cell.size(), ' ') + " ";
    }
    line += "|\n";
    return line;
  };

  std::string out = render_row(header_);
  std::string sep;
  for (size_t w : widths) sep.append("|").append(w + 2, '-');
  out += sep + "|\n";
  for (const auto& row : rows_) out += render_row(row);
  return out;
}

}  // namespace autovac
