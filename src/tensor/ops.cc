#include "tensor/ops.h"

#include <cmath>
#include <cstring>

#include "tensor/kernels.h"
#include "util/thread_pool.h"

namespace cpgan::tensor {
namespace {

constexpr float kLogEps = 1e-12f;

using internal::Node;

/// Flat elementwise kernels are chunked at this many elements; row-wise
/// kernels convert it into a row grain. Grains depend only on shapes, so
/// chunk boundaries — and therefore results — are thread-count independent.
constexpr int64_t kElemGrain = 1 << 15;

int64_t RowGrain(int rows, int cols) {
  (void)rows;
  return std::max<int64_t>(1, kElemGrain / std::max(cols, 1));
}

/// out[0][c] = sum_r row_term(r)[c], computed as per-chunk partial row sums
/// combined in chunk order: deterministic for any thread count. `add_row`
/// must add row r of the reduced quantity into the float* accumulator.
template <typename AddRowFn>
Matrix ColumnSumReduce(int rows, int cols, const AddRowFn& add_row) {
  Matrix out(1, cols);
  const int64_t grain = RowGrain(rows, cols);
  const int64_t num_chunks = util::ThreadPool::NumChunks(0, rows, grain);
  float* orow = out.Row(0);
  if (num_chunks <= 1) {
    for (int r = 0; r < rows; ++r) add_row(r, orow);
    return out;
  }
  std::vector<float> partials(static_cast<size_t>(num_chunks) * cols, 0.0f);
  util::ThreadPool::Global().ParallelForChunked(
      0, rows, grain, [&](int64_t r0, int64_t r1, int64_t chunk) {
        float* acc = partials.data() + chunk * cols;
        for (int64_t r = r0; r < r1; ++r) add_row(static_cast<int>(r), acc);
      });
  for (int64_t chunk = 0; chunk < num_chunks; ++chunk) {
    const float* acc = partials.data() + chunk * cols;
    for (int c = 0; c < cols; ++c) orow[c] += acc[c];
  }
  return out;
}

float StableSoftplus(float x) {
  // log(1 + e^x) = max(x, 0) + log1p(e^{-|x|}).
  float m = x > 0.0f ? x : 0.0f;
  return m + std::log1p(std::exp(-std::fabs(x)));
}

/// Applies fn(value) elementwise and wires a backward of the form
/// dx = g * dfn(x, y).
template <typename Fwd, typename Bwd>
Tensor ElementwiseUnary(const Tensor& x, Fwd fwd, Bwd bwd) {
  Matrix out(x.rows(), x.cols());
  const float* src = x.value().data();
  float* dst = out.data();
  util::ParallelFor(0, x.value().size(), kElemGrain,
                    [&](int64_t b, int64_t e) {
                      for (int64_t i = b; i < e; ++i) dst[i] = fwd(src[i]);
                    });
  return Tensor::MakeNode(
      std::move(out), {x}, [bwd](const Matrix& g, Node& self) {
        Node* input = self.inputs[0].get();
        if (!input->requires_grad) return;
        Matrix dx(g.rows(), g.cols());
        const float* gp = g.data();
        const float* xp = input->value.data();
        const float* yp = self.value.data();
        float* dp = dx.data();
        util::ParallelFor(0, g.size(), kElemGrain, [&](int64_t b, int64_t e) {
          for (int64_t i = b; i < e; ++i) dp[i] = gp[i] * bwd(xp[i], yp[i]);
        });
        input->AccumulateGrad(dx);
      });
}

}  // namespace

float StableSigmoid(float x) {
  if (x >= 0.0f) {
    float e = std::exp(-x);
    return 1.0f / (1.0f + e);
  }
  float e = std::exp(x);
  return e / (1.0f + e);
}

Tensor Add(const Tensor& a, const Tensor& b) {
  CPGAN_CHECK(a.value().SameShape(b.value()));
  Matrix out = a.value();
  out.AddInPlace(b.value());
  return Tensor::MakeNode(std::move(out), {a, b},
                          [](const Matrix& g, Node& self) {
                            for (int i = 0; i < 2; ++i) {
                              Node* input = self.inputs[i].get();
                              if (input->requires_grad) input->AccumulateGrad(g);
                            }
                          });
}

Tensor Sub(const Tensor& a, const Tensor& b) {
  CPGAN_CHECK(a.value().SameShape(b.value()));
  Matrix out = a.value();
  out.Axpy(-1.0f, b.value());
  return Tensor::MakeNode(std::move(out), {a, b},
                          [](const Matrix& g, Node& self) {
                            Node* a_in = self.inputs[0].get();
                            Node* b_in = self.inputs[1].get();
                            if (a_in->requires_grad) a_in->AccumulateGrad(g);
                            if (b_in->requires_grad) {
                              Matrix neg = g;
                              neg.Scale(-1.0f);
                              b_in->AccumulateGrad(neg);
                            }
                          });
}

namespace {

/// dst[i] = x[i] * y[i] over the whole flat range, in parallel.
void ElementwiseProduct(const float* x, const float* y, float* dst,
                        int64_t size) {
  util::ParallelFor(0, size, kElemGrain, [&](int64_t b, int64_t e) {
    for (int64_t i = b; i < e; ++i) dst[i] = x[i] * y[i];
  });
}

}  // namespace

Tensor Mul(const Tensor& a, const Tensor& b) {
  CPGAN_CHECK(a.value().SameShape(b.value()));
  Matrix out(a.rows(), a.cols());
  ElementwiseProduct(a.value().data(), b.value().data(), out.data(),
                     out.size());
  return Tensor::MakeNode(
      std::move(out), {a, b}, [](const Matrix& g, Node& self) {
        Node* a_in = self.inputs[0].get();
        Node* b_in = self.inputs[1].get();
        if (a_in->requires_grad) {
          Matrix da(g.rows(), g.cols());
          ElementwiseProduct(g.data(), b_in->value.data(), da.data(),
                             g.size());
          a_in->AccumulateGrad(da);
        }
        if (b_in->requires_grad) {
          Matrix db(g.rows(), g.cols());
          ElementwiseProduct(g.data(), a_in->value.data(), db.data(),
                             g.size());
          b_in->AccumulateGrad(db);
        }
      });
}

Tensor AddRowVec(const Tensor& x, const Tensor& v) {
  CPGAN_CHECK_EQ(v.rows(), 1);
  CPGAN_CHECK_EQ(v.cols(), x.cols());
  Matrix out = x.value();
  const float* vec = v.value().Row(0);
  const int cols = out.cols();
  util::ParallelFor(0, out.rows(), RowGrain(out.rows(), cols),
                    [&](int64_t r0, int64_t r1) {
                      for (int64_t r = r0; r < r1; ++r) {
                        float* row = out.Row(static_cast<int>(r));
                        for (int c = 0; c < cols; ++c) row[c] += vec[c];
                      }
                    });
  return Tensor::MakeNode(
      std::move(out), {x, v}, [](const Matrix& g, Node& self) {
        Node* x_in = self.inputs[0].get();
        Node* v_in = self.inputs[1].get();
        if (x_in->requires_grad) x_in->AccumulateGrad(g);
        if (v_in->requires_grad) {
          const int cols = g.cols();
          Matrix dv = ColumnSumReduce(
              g.rows(), cols, [&g, cols](int r, float* acc) {
                const float* row = g.Row(r);
                for (int c = 0; c < cols; ++c) acc[c] += row[c];
              });
          v_in->AccumulateGrad(dv);
        }
      });
}

Tensor MulRowVec(const Tensor& x, const Tensor& v) {
  CPGAN_CHECK_EQ(v.rows(), 1);
  CPGAN_CHECK_EQ(v.cols(), x.cols());
  Matrix out = x.value();
  const float* vec = v.value().Row(0);
  const int cols = out.cols();
  util::ParallelFor(0, out.rows(), RowGrain(out.rows(), cols),
                    [&](int64_t r0, int64_t r1) {
                      for (int64_t r = r0; r < r1; ++r) {
                        float* row = out.Row(static_cast<int>(r));
                        for (int c = 0; c < cols; ++c) row[c] *= vec[c];
                      }
                    });
  return Tensor::MakeNode(
      std::move(out), {x, v}, [](const Matrix& g, Node& self) {
        Node* x_in = self.inputs[0].get();
        Node* v_in = self.inputs[1].get();
        const int cols = g.cols();
        if (x_in->requires_grad) {
          Matrix dx(g.rows(), cols);
          const float* vec = v_in->value.Row(0);
          util::ParallelFor(0, g.rows(), RowGrain(g.rows(), cols),
                            [&](int64_t r0, int64_t r1) {
                              for (int64_t r = r0; r < r1; ++r) {
                                const float* grow = g.Row(static_cast<int>(r));
                                float* drow = dx.Row(static_cast<int>(r));
                                for (int c = 0; c < cols; ++c) {
                                  drow[c] = grow[c] * vec[c];
                                }
                              }
                            });
          x_in->AccumulateGrad(dx);
        }
        if (v_in->requires_grad) {
          const Matrix& xv = x_in->value;
          Matrix dv = ColumnSumReduce(
              g.rows(), cols, [&g, &xv, cols](int r, float* acc) {
                const float* grow = g.Row(r);
                const float* xrow = xv.Row(r);
                for (int c = 0; c < cols; ++c) acc[c] += grow[c] * xrow[c];
              });
          v_in->AccumulateGrad(dv);
        }
      });
}

Tensor MulColVec(const Tensor& x, const Tensor& v) {
  CPGAN_CHECK_EQ(v.cols(), 1);
  CPGAN_CHECK_EQ(v.rows(), x.rows());
  Matrix out = x.value();
  const int cols = out.cols();
  const float* vcol = v.value().data();  // n x 1: column is the flat buffer
  util::ParallelFor(0, out.rows(), RowGrain(out.rows(), cols),
                    [&](int64_t r0, int64_t r1) {
                      for (int64_t r = r0; r < r1; ++r) {
                        float scale = vcol[r];
                        float* row = out.Row(static_cast<int>(r));
                        for (int c = 0; c < cols; ++c) row[c] *= scale;
                      }
                    });
  return Tensor::MakeNode(
      std::move(out), {x, v}, [](const Matrix& g, Node& self) {
        Node* x_in = self.inputs[0].get();
        Node* v_in = self.inputs[1].get();
        const int cols = g.cols();
        if (x_in->requires_grad) {
          Matrix dx(g.rows(), cols);
          const float* vcol = v_in->value.data();
          util::ParallelFor(0, g.rows(), RowGrain(g.rows(), cols),
                            [&](int64_t r0, int64_t r1) {
                              for (int64_t r = r0; r < r1; ++r) {
                                float scale = vcol[r];
                                const float* grow = g.Row(static_cast<int>(r));
                                float* drow = dx.Row(static_cast<int>(r));
                                for (int c = 0; c < cols; ++c) {
                                  drow[c] = grow[c] * scale;
                                }
                              }
                            });
          x_in->AccumulateGrad(dx);
        }
        if (v_in->requires_grad) {
          Matrix dv(g.rows(), 1);
          const Matrix& xv = x_in->value;
          float* dcol = dv.data();
          util::ParallelFor(0, g.rows(), RowGrain(g.rows(), cols),
                            [&](int64_t r0, int64_t r1) {
                              for (int64_t r = r0; r < r1; ++r) {
                                const float* grow = g.Row(static_cast<int>(r));
                                const float* xrow =
                                    xv.Row(static_cast<int>(r));
                                double acc = 0.0;
                                for (int c = 0; c < cols; ++c) {
                                  acc += grow[c] * xrow[c];
                                }
                                dcol[r] = static_cast<float>(acc);
                              }
                            });
          v_in->AccumulateGrad(dv);
        }
      });
}

Tensor Scale(const Tensor& x, float alpha) {
  Matrix out = x.value();
  out.Scale(alpha);
  return Tensor::MakeNode(std::move(out), {x},
                          [alpha](const Matrix& g, Node& self) {
                            Node* input = self.inputs[0].get();
                            if (!input->requires_grad) return;
                            Matrix dx = g;
                            dx.Scale(alpha);
                            input->AccumulateGrad(dx);
                          });
}

Tensor AddConst(const Tensor& x, float c) {
  Matrix out = x.value();
  for (int64_t i = 0; i < out.size(); ++i) out.data()[i] += c;
  return Tensor::MakeNode(std::move(out), {x},
                          [](const Matrix& g, Node& self) {
                            Node* input = self.inputs[0].get();
                            if (input->requires_grad) input->AccumulateGrad(g);
                          });
}

Tensor AddScalar(const Tensor& x, const Tensor& s) {
  CPGAN_CHECK(s.rows() == 1 && s.cols() == 1);
  const float c = s.value().At(0, 0);
  Matrix out = x.value();
  float* p = out.data();
  util::ParallelFor(0, out.size(), kElemGrain, [p, c](int64_t b, int64_t e) {
    for (int64_t i = b; i < e; ++i) p[i] += c;
  });
  return Tensor::MakeNode(
      std::move(out), {x, s}, [](const Matrix& g, Node& self) {
        Node* x_in = self.inputs[0].get();
        Node* s_in = self.inputs[1].get();
        if (x_in->requires_grad) x_in->AccumulateGrad(g);
        if (!s_in->requires_grad) return;
        // Row sums (double-accumulated), then their float sum in row order.
        const kernels::KernelOps& ops = kernels::Active();
        float total = 0.0f;
        for (int r = 0; r < g.rows(); ++r) {
          total += static_cast<float>(ops.sum(g.Row(r), g.cols()));
        }
        s_in->AccumulateGrad(Matrix(1, 1, total));
      });
}

Tensor Neg(const Tensor& x) { return Scale(x, -1.0f); }

Tensor Relu(const Tensor& x) {
  return ElementwiseUnary(
      x, [](float v) { return v > 0.0f ? v : 0.0f; },
      [](float xv, float) { return xv > 0.0f ? 1.0f : 0.0f; });
}

Tensor Sigmoid(const Tensor& x) {
  return ElementwiseUnary(x, [](float v) { return StableSigmoid(v); },
                          [](float, float yv) { return yv * (1.0f - yv); });
}

Tensor Tanh(const Tensor& x) {
  return ElementwiseUnary(x, [](float v) { return std::tanh(v); },
                          [](float, float yv) { return 1.0f - yv * yv; });
}

Tensor Exp(const Tensor& x) {
  return ElementwiseUnary(x, [](float v) { return std::exp(v); },
                          [](float, float yv) { return yv; });
}

Tensor Log(const Tensor& x) {
  return ElementwiseUnary(
      x,
      [](float v) { return std::log(v > kLogEps ? v : kLogEps); },
      [](float xv, float) { return 1.0f / (xv > kLogEps ? xv : kLogEps); });
}

Tensor Square(const Tensor& x) {
  return ElementwiseUnary(x, [](float v) { return v * v; },
                          [](float xv, float) { return 2.0f * xv; });
}

Tensor Sqrt(const Tensor& x) {
  return ElementwiseUnary(
      x, [](float v) { return std::sqrt(v > 0.0f ? v : 0.0f); },
      [](float, float yv) { return 0.5f / (yv > 1e-6f ? yv : 1e-6f); });
}

Tensor Softplus(const Tensor& x) {
  return ElementwiseUnary(x, [](float v) { return StableSoftplus(v); },
                          [](float xv, float) { return StableSigmoid(xv); });
}

Tensor Reciprocal(const Tensor& x) {
  return ElementwiseUnary(x, [](float v) { return 1.0f / v; },
                          [](float, float yv) { return -yv * yv; });
}

Tensor SoftmaxRows(const Tensor& x) {
  Matrix out(x.rows(), x.cols());
  const Matrix& xv = x.value();
  const int cols = xv.cols();
  // Zero-column rows have no entries: the max-subtraction below would read
  // row[0] out of bounds. The softmax of an empty row is the empty row.
  if (cols == 0) {
    return Tensor::MakeNode(std::move(out), {x},
                            [](const Matrix&, Node&) {});
  }
  util::ParallelFor(
      0, xv.rows(), RowGrain(xv.rows(), cols), [&](int64_t r0, int64_t r1) {
        for (int64_t r = r0; r < r1; ++r) {
          const float* row = xv.Row(static_cast<int>(r));
          float* orow = out.Row(static_cast<int>(r));
          float maxv = row[0];
          for (int c = 1; c < cols; ++c) maxv = std::max(maxv, row[c]);
          double total = 0.0;
          for (int c = 0; c < cols; ++c) {
            orow[c] = std::exp(row[c] - maxv);
            total += orow[c];
          }
          float inv = static_cast<float>(1.0 / total);
          for (int c = 0; c < cols; ++c) orow[c] *= inv;
        }
      });
  return Tensor::MakeNode(
      std::move(out), {x}, [](const Matrix& g, Node& self) {
        Node* input = self.inputs[0].get();
        if (!input->requires_grad) return;
        const Matrix& y = self.value;
        Matrix dx(g.rows(), g.cols());
        const int cols = g.cols();
        util::ParallelFor(
            0, g.rows(), RowGrain(g.rows(), cols),
            [&](int64_t r0, int64_t r1) {
              for (int64_t r = r0; r < r1; ++r) {
                const float* grow = g.Row(static_cast<int>(r));
                const float* yrow = y.Row(static_cast<int>(r));
                double dot = 0.0;
                for (int c = 0; c < cols; ++c) dot += grow[c] * yrow[c];
                float* drow = dx.Row(static_cast<int>(r));
                for (int c = 0; c < cols; ++c) {
                  drow[c] = yrow[c] * (grow[c] - static_cast<float>(dot));
                }
              }
            });
        input->AccumulateGrad(dx);
      });
}

Tensor Matmul(const Tensor& a, const Tensor& b) {
  Matrix out = Matmul(a.value(), b.value());
  return Tensor::MakeNode(
      std::move(out), {a, b}, [](const Matrix& g, Node& self) {
        Node* a_in = self.inputs[0].get();
        Node* b_in = self.inputs[1].get();
        if (a_in->requires_grad) a_in->AccumulateGrad(MatmulNT(g, b_in->value));
        if (b_in->requires_grad) b_in->AccumulateGrad(MatmulTN(a_in->value, g));
      });
}

Tensor Spmm(std::shared_ptr<const SparseMatrix> s, const Tensor& x) {
  CPGAN_CHECK(s != nullptr);
  Matrix out = s->Multiply(x.value());
  return Tensor::MakeNode(std::move(out), {x},
                          [s](const Matrix& g, Node& self) {
                            Node* input = self.inputs[0].get();
                            if (!input->requires_grad) return;
                            input->AccumulateGrad(s->MultiplyTransposed(g));
                          });
}

Tensor Transpose(const Tensor& x) {
  return Tensor::MakeNode(x.value().Transposed(), {x},
                          [](const Matrix& g, Node& self) {
                            Node* input = self.inputs[0].get();
                            if (!input->requires_grad) return;
                            input->AccumulateGrad(g.Transposed());
                          });
}

Tensor ConcatRows(const std::vector<Tensor>& parts) {
  CPGAN_CHECK(!parts.empty());
  int cols = parts[0].cols();
  int rows = 0;
  for (const Tensor& part : parts) {
    CPGAN_CHECK_EQ(part.cols(), cols);
    rows += part.rows();
  }
  Matrix out(rows, cols);
  int offset = 0;
  for (const Tensor& part : parts) {
    for (int r = 0; r < part.rows(); ++r) {
      const float* src = part.value().Row(r);
      float* dst = out.Row(offset + r);
      for (int c = 0; c < cols; ++c) dst[c] = src[c];
    }
    offset += part.rows();
  }
  return Tensor::MakeNode(
      std::move(out), parts, [](const Matrix& g, Node& self) {
        int offset = 0;
        for (auto& input : self.inputs) {
          int r_count = input->value.rows();
          if (input->requires_grad) {
            Matrix slice(r_count, g.cols());
            for (int r = 0; r < r_count; ++r) {
              const float* src = g.Row(offset + r);
              float* dst = slice.Row(r);
              for (int c = 0; c < g.cols(); ++c) dst[c] = src[c];
            }
            input->AccumulateGrad(slice);
          }
          offset += r_count;
        }
      });
}

Tensor ConcatCols(const std::vector<Tensor>& parts) {
  CPGAN_CHECK(!parts.empty());
  int rows = parts[0].rows();
  int cols = 0;
  for (const Tensor& part : parts) {
    CPGAN_CHECK_EQ(part.rows(), rows);
    cols += part.cols();
  }
  Matrix out(rows, cols);
  int offset = 0;
  for (const Tensor& part : parts) {
    for (int r = 0; r < rows; ++r) {
      const float* src = part.value().Row(r);
      float* dst = out.Row(r) + offset;
      for (int c = 0; c < part.cols(); ++c) dst[c] = src[c];
    }
    offset += part.cols();
  }
  return Tensor::MakeNode(
      std::move(out), parts, [](const Matrix& g, Node& self) {
        int offset = 0;
        for (auto& input : self.inputs) {
          int c_count = input->value.cols();
          if (input->requires_grad) {
            Matrix slice(g.rows(), c_count);
            for (int r = 0; r < g.rows(); ++r) {
              const float* src = g.Row(r) + offset;
              float* dst = slice.Row(r);
              for (int c = 0; c < c_count; ++c) dst[c] = src[c];
            }
            input->AccumulateGrad(slice);
          }
          offset += c_count;
        }
      });
}

Tensor GatherRows(const Tensor& x, std::vector<int> indices) {
  Matrix out(static_cast<int>(indices.size()), x.cols());
  for (size_t i = 0; i < indices.size(); ++i) {
    int idx = indices[i];
    CPGAN_CHECK(idx >= 0 && idx < x.rows());
    const float* src = x.value().Row(idx);
    float* dst = out.Row(static_cast<int>(i));
    for (int c = 0; c < x.cols(); ++c) dst[c] = src[c];
  }
  auto shared_indices = std::make_shared<std::vector<int>>(std::move(indices));
  return Tensor::MakeNode(
      std::move(out), {x}, [shared_indices](const Matrix& g, Node& self) {
        Node* input = self.inputs[0].get();
        if (!input->requires_grad) return;
        Matrix dx(input->value.rows(), input->value.cols());
        for (size_t i = 0; i < shared_indices->size(); ++i) {
          const float* src = g.Row(static_cast<int>(i));
          float* dst = dx.Row((*shared_indices)[i]);
          for (int c = 0; c < g.cols(); ++c) dst[c] += src[c];
        }
        input->AccumulateGrad(dx);
      });
}

Tensor SliceCols(const Tensor& x, int start, int len) {
  CPGAN_CHECK(start >= 0 && len >= 0 && start + len <= x.cols());
  Matrix out(x.rows(), len);
  for (int r = 0; r < x.rows(); ++r) {
    const float* src = x.value().Row(r) + start;
    float* dst = out.Row(r);
    for (int c = 0; c < len; ++c) dst[c] = src[c];
  }
  return Tensor::MakeNode(
      std::move(out), {x}, [start, len](const Matrix& g, Node& self) {
        Node* input = self.inputs[0].get();
        if (!input->requires_grad) return;
        Matrix dx(input->value.rows(), input->value.cols());
        for (int r = 0; r < g.rows(); ++r) {
          const float* src = g.Row(r);
          float* dst = dx.Row(r) + start;
          for (int c = 0; c < len; ++c) dst[c] = src[c];
        }
        input->AccumulateGrad(dx);
      });
}

Tensor Reshape(const Tensor& x, int rows, int cols) {
  CPGAN_CHECK_EQ(static_cast<int64_t>(rows) * cols, x.value().size());
  Matrix out(rows, cols);
  std::memcpy(out.data(), x.value().data(), out.size() * sizeof(float));
  return Tensor::MakeNode(
      std::move(out), {x}, [](const Matrix& g, Node& self) {
        Node* input = self.inputs[0].get();
        if (!input->requires_grad) return;
        Matrix dx(input->value.rows(), input->value.cols());
        std::memcpy(dx.data(), g.data(), g.size() * sizeof(float));
        input->AccumulateGrad(dx);
      });
}

Tensor SumAll(const Tensor& x) {
  Matrix out(1, 1);
  out.At(0, 0) = x.value().Sum();
  return Tensor::MakeNode(std::move(out), {x},
                          [](const Matrix& g, Node& self) {
                            Node* input = self.inputs[0].get();
                            if (!input->requires_grad) return;
                            Matrix dx(input->value.rows(), input->value.cols(),
                                      g.At(0, 0));
                            input->AccumulateGrad(dx);
                          });
}

Tensor MeanAll(const Tensor& x) {
  return Scale(SumAll(x), 1.0f / static_cast<float>(x.value().size()));
}

Tensor ColMean(const Tensor& x) {
  const Matrix& xv = x.value();
  const int cols = xv.cols();
  Matrix out = ColumnSumReduce(xv.rows(), cols, [&xv, cols](int r,
                                                            float* acc) {
    const float* row = xv.Row(r);
    for (int c = 0; c < cols; ++c) acc[c] += row[c];
  });
  float inv = 1.0f / static_cast<float>(x.rows());
  out.Scale(inv);
  return Tensor::MakeNode(
      std::move(out), {x}, [inv](const Matrix& g, Node& self) {
        Node* input = self.inputs[0].get();
        if (!input->requires_grad) return;
        Matrix dx(input->value.rows(), input->value.cols());
        const float* grow = g.Row(0);
        const int cols = dx.cols();
        util::ParallelFor(0, dx.rows(), RowGrain(dx.rows(), cols),
                          [&](int64_t r0, int64_t r1) {
                            for (int64_t r = r0; r < r1; ++r) {
                              float* drow = dx.Row(static_cast<int>(r));
                              for (int c = 0; c < cols; ++c) {
                                drow[c] = grow[c] * inv;
                              }
                            }
                          });
        input->AccumulateGrad(dx);
      });
}

Tensor RowSum(const Tensor& x) {
  Matrix out(x.rows(), 1);
  const Matrix& xv = x.value();
  const int cols = xv.cols();
  float* ocol = out.data();
  util::ParallelFor(0, xv.rows(), RowGrain(xv.rows(), cols),
                    [&](int64_t r0, int64_t r1) {
                      for (int64_t r = r0; r < r1; ++r) {
                        const float* row = xv.Row(static_cast<int>(r));
                        double acc = 0.0;
                        for (int c = 0; c < cols; ++c) acc += row[c];
                        ocol[r] = static_cast<float>(acc);
                      }
                    });
  return Tensor::MakeNode(
      std::move(out), {x}, [](const Matrix& g, Node& self) {
        Node* input = self.inputs[0].get();
        if (!input->requires_grad) return;
        Matrix dx(input->value.rows(), input->value.cols());
        const float* gcol = g.data();
        const int cols = dx.cols();
        util::ParallelFor(0, dx.rows(), RowGrain(dx.rows(), cols),
                          [&](int64_t r0, int64_t r1) {
                            for (int64_t r = r0; r < r1; ++r) {
                              float gv = gcol[r];
                              float* drow = dx.Row(static_cast<int>(r));
                              for (int c = 0; c < cols; ++c) drow[c] = gv;
                            }
                          });
        input->AccumulateGrad(dx);
      });
}

Tensor RowL2Norm(const Tensor& x) {
  Matrix out(x.rows(), 1);
  const Matrix& xv = x.value();
  const int cols = xv.cols();
  float* ocol = out.data();
  util::ParallelFor(
      0, xv.rows(), RowGrain(xv.rows(), cols), [&](int64_t r0, int64_t r1) {
        for (int64_t r = r0; r < r1; ++r) {
          const float* row = xv.Row(static_cast<int>(r));
          double acc = 0.0;
          for (int c = 0; c < cols; ++c) {
            acc += static_cast<double>(row[c]) * row[c];
          }
          ocol[r] = static_cast<float>(std::sqrt(acc));
        }
      });
  return Tensor::MakeNode(
      std::move(out), {x}, [](const Matrix& g, Node& self) {
        Node* input = self.inputs[0].get();
        if (!input->requires_grad) return;
        Matrix dx(input->value.rows(), input->value.cols());
        const float* norms = self.value.data();
        const float* gcol = g.data();
        const int cols = dx.cols();
        util::ParallelFor(
            0, dx.rows(), RowGrain(dx.rows(), cols),
            [&](int64_t r0, int64_t r1) {
              for (int64_t r = r0; r < r1; ++r) {
                float norm = norms[r];
                float scale = gcol[r] / (norm > 1e-6f ? norm : 1e-6f);
                const float* xrow = input->value.Row(static_cast<int>(r));
                float* drow = dx.Row(static_cast<int>(r));
                for (int c = 0; c < cols; ++c) drow[c] = scale * xrow[c];
              }
            });
        input->AccumulateGrad(dx);
      });
}

Tensor BceWithLogits(const Tensor& logits, const Matrix& targets,
                     float pos_weight) {
  CPGAN_CHECK(logits.value().SameShape(targets));
  auto shared_targets = std::make_shared<Matrix>(targets);
  const Matrix& x = logits.value();
  const float* xp = x.data();
  const float* tp = targets.data();
  double total = util::ParallelSum(
      0, x.size(), kElemGrain, [&](int64_t i0, int64_t i1) {
        double acc = 0.0;
        for (int64_t i = i0; i < i1; ++i) {
          float xv = xp[i];
          float t = tp[i];
          // pos_weight * t * softplus(-x) + (1 - t) * softplus(x)
          acc += pos_weight * t * StableSoftplus(-xv) +
                 (1.0f - t) * StableSoftplus(xv);
        }
        return acc;
      });
  Matrix out(1, 1);
  float inv = 1.0f / static_cast<float>(x.size());
  out.At(0, 0) = static_cast<float>(total) * inv;
  return Tensor::MakeNode(
      std::move(out), {logits},
      [shared_targets, pos_weight, inv](const Matrix& g, Node& self) {
        Node* input = self.inputs[0].get();
        if (!input->requires_grad) return;
        float gv = g.At(0, 0) * inv;
        Matrix dx(input->value.rows(), input->value.cols());
        const float* xp = input->value.data();
        const float* tp = shared_targets->data();
        float* dp = dx.data();
        util::ParallelFor(0, dx.size(), kElemGrain, [&](int64_t i0,
                                                        int64_t i1) {
          for (int64_t i = i0; i < i1; ++i) {
            float xv = xp[i];
            float t = tp[i];
            float s = StableSigmoid(xv);
            // d/dx [pw * t * softplus(-x) + (1-t) * softplus(x)]
            dp[i] = gv * (-pos_weight * t * (1.0f - s) + (1.0f - t) * s);
          }
        });
        input->AccumulateGrad(dx);
      });
}

Tensor MseLoss(const Tensor& a, const Tensor& b) {
  return MeanAll(Square(Sub(a, b)));
}

Tensor Constant(Matrix value) { return Tensor(std::move(value), false); }

Tensor ScalarConstant(float value) {
  Matrix m(1, 1);
  m.At(0, 0) = value;
  return Tensor(std::move(m), false);
}

bool AllFinite(const Matrix& m) {
  const float* p = m.data();
  for (int64_t i = 0; i < m.size(); ++i) {
    if (!std::isfinite(p[i])) return false;
  }
  return true;
}

bool GradsFinite(const std::vector<Tensor>& params) {
  for (const Tensor& p : params) {
    if (!p.defined()) continue;
    if (!AllFinite(p.grad())) return false;
  }
  return true;
}

}  // namespace cpgan::tensor
