// Dense row-major matrix of doubles — the contiguous data plane shared by
// the pipeline stages: the allocators' user × task expertise and p_ij
// planes, and every user × domain expertise value or Eq. 7–8 accumulator
// in truth/. One allocation, cache-friendly row scans, spans instead of
// nested vectors.
#ifndef ETA2_COMMON_MATRIX_H
#define ETA2_COMMON_MATRIX_H

#include <cstddef>
#include <initializer_list>
#include <limits>
#include <span>
#include <vector>

#include "common/check.h"
#include "common/error.h"

namespace eta2 {

class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0)
      : rows_(rows), cols_(cols), data_(cell_count(rows, cols), fill) {}

  // Literal construction for tests/examples: {{1, 2}, {3, 4}}. Every row
  // must have the same length.
  Matrix(std::initializer_list<std::initializer_list<double>> rows) {
    rows_ = rows.size();
    cols_ = rows_ == 0 ? 0 : rows.begin()->size();
    data_.reserve(rows_ * cols_);
    for (const auto& row : rows) {
      require(row.size() == cols_, "Matrix: ragged initializer rows");
      data_.insert(data_.end(), row.begin(), row.end());
    }
  }

  [[nodiscard]] std::size_t rows() const { return rows_; }
  [[nodiscard]] std::size_t cols() const { return cols_; }
  [[nodiscard]] bool empty() const { return data_.empty(); }

  void assign(std::size_t rows, std::size_t cols, double fill = 0.0) {
    data_.assign(cell_count(rows, cols), fill);
    rows_ = rows;
    cols_ = cols;
  }

  // Element/row access: bounds are a full-level contract (ETA2_CHECKS=2) —
  // cheap/off builds keep the raw unchecked hot path.
  [[nodiscard]] double& operator()(std::size_t r, std::size_t c) {
    ETA2_ASSERT(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }
  [[nodiscard]] const double& operator()(std::size_t r, std::size_t c) const {
    ETA2_ASSERT(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }

  [[nodiscard]] std::span<double> row(std::size_t r) {
    ETA2_ASSERT(r < rows_ || (r == 0 && rows_ == 0));
    return {data_.data() + r * cols_, cols_};
  }
  [[nodiscard]] std::span<const double> row(std::size_t r) const {
    ETA2_ASSERT(r < rows_ || (r == 0 && rows_ == 0));
    return {data_.data() + r * cols_, cols_};
  }

  // The full row-major buffer (size rows() * cols()).
  [[nodiscard]] std::span<double> data() { return data_; }
  [[nodiscard]] std::span<const double> data() const { return data_; }

  // Same shape and cells (IEEE ==: a NaN cell never matches).
  friend bool operator==(const Matrix&, const Matrix&) = default;

 private:
  // rows * cols; a product that wraps (a corrupt header) is rejected.
  static std::size_t cell_count(std::size_t rows, std::size_t cols) {
    require(cols == 0 || rows <= std::numeric_limits<std::size_t>::max() / cols,
            "Matrix: rows * cols overflows");
    return rows * cols;
  }

  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

}  // namespace eta2

#endif  // ETA2_COMMON_MATRIX_H
