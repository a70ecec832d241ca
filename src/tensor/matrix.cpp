#include "tensor/matrix.hpp"

#include <cmath>

#include "common/logging.hpp"

namespace neusight {

Matrix::Matrix(size_t rows, size_t cols)
    : nRows(rows), nCols(cols), data(rows * cols, 0.0)
{
}

Matrix::Matrix(size_t rows, size_t cols, double fill)
    : nRows(rows), nCols(cols), data(rows * cols, fill)
{
}

Matrix
Matrix::fromRows(const std::vector<std::vector<double>> &rows)
{
    ensure(!rows.empty(), "Matrix::fromRows: empty input");
    Matrix m(rows.size(), rows[0].size());
    for (size_t r = 0; r < rows.size(); ++r) {
        ensure(rows[r].size() == rows[0].size(),
               "Matrix::fromRows: ragged rows");
        for (size_t c = 0; c < rows[r].size(); ++c)
            m.at(r, c) = rows[r][c];
    }
    return m;
}

void
Matrix::setZero()
{
    std::fill(data.begin(), data.end(), 0.0);
}

void
Matrix::resize(size_t rows, size_t cols)
{
    nRows = rows;
    nCols = cols;
    data.resize(rows * cols);
}

MatrixF32::MatrixF32(size_t rows, size_t cols)
    : nRows(rows), nCols(cols), data(rows * cols, 0.0f)
{
}

MatrixF32
MatrixF32::fromMatrix(const Matrix &m)
{
    MatrixF32 out(m.rows(), m.cols());
    const double *NEUSIGHT_RESTRICT src = m.raw();
    float *NEUSIGHT_RESTRICT dst = out.raw();
    const size_t n = out.size();
    for (size_t i = 0; i < n; ++i)
        dst[i] = static_cast<float>(src[i]);
    return out;
}

Matrix
MatrixF32::toMatrix() const
{
    Matrix out(nRows, nCols);
    const float *NEUSIGHT_RESTRICT src = raw();
    double *NEUSIGHT_RESTRICT dst = out.raw();
    const size_t n = size();
    for (size_t i = 0; i < n; ++i)
        dst[i] = static_cast<double>(src[i]);
    return out;
}

MatrixF32
linearF32(const MatrixF32 &x, const MatrixF32 &w, const MatrixF32 &bias,
          bool applyRelu)
{
    ensure(x.cols() == w.rows(), "linearF32: inner dimensions differ");
    ensure(bias.rows() == 1 && bias.cols() == w.cols(),
           "linearF32: bias must be 1 x cols");
    const size_t m = x.rows();
    const size_t k = x.cols();
    const size_t n = w.cols();
    MatrixF32 y(m, n);
    const float *NEUSIGHT_RESTRICT brow0 = bias.raw();
    for (size_t i = 0; i < m; ++i) {
        float *NEUSIGHT_RESTRICT yrow = y.raw() + i * n;
        const float *NEUSIGHT_RESTRICT xrow = x.raw() + i * k;
        // Seed the accumulator row with the bias, then stream k
        // rank-one updates: unit stride on W and Y, no branches, so
        // each j-loop vectorizes to packed FMAs.
        for (size_t j = 0; j < n; ++j)
            yrow[j] = brow0[j];
        for (size_t p = 0; p < k; ++p) {
            const float xval = xrow[p];
            const float *NEUSIGHT_RESTRICT wrow = w.raw() + p * n;
            for (size_t j = 0; j < n; ++j)
                yrow[j] += xval * wrow[j];
        }
        if (applyRelu) {
            for (size_t j = 0; j < n; ++j)
                yrow[j] = yrow[j] > 0.0f ? yrow[j] : 0.0f;
        }
    }
    return y;
}

void
Matrix::fill(double value)
{
    std::fill(data.begin(), data.end(), value);
}

void
Matrix::apply(const std::function<double(double)> &fn)
{
    for (double &v : data)
        v = fn(v);
}

double
Matrix::sum() const
{
    double total = 0.0;
    for (double v : data)
        total += v;
    return total;
}

bool
Matrix::allClose(const Matrix &other, double tol) const
{
    if (nRows != other.nRows || nCols != other.nCols)
        return false;
    for (size_t i = 0; i < data.size(); ++i)
        if (std::abs(data[i] - other.data[i]) > tol)
            return false;
    return true;
}

Matrix
matmul(const Matrix &a, const Matrix &b)
{
    ensure(a.cols() == b.rows(), "matmul: inner dimensions differ");
    const size_t m = a.rows();
    const size_t k = a.cols();
    const size_t n = b.cols();
    Matrix c(m, n);
    // i-k-j loop order: unit-stride access on both B and C.
    for (size_t i = 0; i < m; ++i) {
        double *crow = c.raw() + i * n;
        const double *arow = a.raw() + i * k;
        for (size_t p = 0; p < k; ++p) {
            const double aval = arow[p];
            if (aval == 0.0)
                continue;
            const double *brow = b.raw() + p * n;
            for (size_t j = 0; j < n; ++j)
                crow[j] += aval * brow[j];
        }
    }
    return c;
}

Matrix
matmulNT(const Matrix &a, const Matrix &b)
{
    ensure(a.cols() == b.cols(), "matmulNT: inner dimensions differ");
    const size_t m = a.rows();
    const size_t k = a.cols();
    const size_t n = b.rows();
    Matrix c(m, n);
    for (size_t i = 0; i < m; ++i) {
        const double *arow = a.raw() + i * k;
        double *crow = c.raw() + i * n;
        for (size_t j = 0; j < n; ++j) {
            const double *brow = b.raw() + j * k;
            double acc = 0.0;
            for (size_t p = 0; p < k; ++p)
                acc += arow[p] * brow[p];
            crow[j] = acc;
        }
    }
    return c;
}

Matrix
matmulTN(const Matrix &a, const Matrix &b)
{
    ensure(a.rows() == b.rows(), "matmulTN: inner dimensions differ");
    const size_t m = a.cols();
    const size_t k = a.rows();
    const size_t n = b.cols();
    // A is consumed column-wise here; an O(m*k) transposed copy makes
    // every access of the O(m*k*n) accumulation unit-stride. The copy
    // lands in a thread-local scratch buffer so steady-state callers
    // (every Linear backward of every training step) stop paying a
    // malloc per call.
    thread_local Matrix at;
    transposeInto(a, at);
    Matrix c(m, n);
    for (size_t i = 0; i < m; ++i) {
        double *crow = c.raw() + i * n;
        const double *atrow = at.raw() + i * k;
        for (size_t p = 0; p < k; ++p) {
            const double aval = atrow[p];
            if (aval == 0.0)
                continue;
            const double *brow = b.raw() + p * n;
            for (size_t j = 0; j < n; ++j)
                crow[j] += aval * brow[j];
        }
    }
    return c;
}

namespace {

void
checkSameShape(const Matrix &a, const Matrix &b, const char *what)
{
    ensure(a.rows() == b.rows() && a.cols() == b.cols(),
           std::string(what) + ": shape mismatch");
}

} // namespace

Matrix
add(const Matrix &a, const Matrix &b)
{
    checkSameShape(a, b, "add");
    Matrix c = a;
    addInPlace(c, b);
    return c;
}

Matrix
sub(const Matrix &a, const Matrix &b)
{
    checkSameShape(a, b, "sub");
    Matrix c = a;
    axpyInPlace(c, -1.0, b);
    return c;
}

Matrix
mul(const Matrix &a, const Matrix &b)
{
    checkSameShape(a, b, "mul");
    Matrix c(a.rows(), a.cols());
    for (size_t i = 0; i < a.size(); ++i)
        c.raw()[i] = a.raw()[i] * b.raw()[i];
    return c;
}

Matrix
scale(const Matrix &a, double s)
{
    Matrix c = a;
    for (size_t i = 0; i < c.size(); ++i)
        c.raw()[i] *= s;
    return c;
}

Matrix
addRowBroadcast(const Matrix &a, const Matrix &bias)
{
    ensure(bias.rows() == 1 && bias.cols() == a.cols(),
           "addRowBroadcast: bias must be 1 x cols");
    Matrix c = a;
    for (size_t i = 0; i < a.rows(); ++i)
        for (size_t j = 0; j < a.cols(); ++j)
            c.at(i, j) += bias.at(0, j);
    return c;
}

Matrix
colSum(const Matrix &a)
{
    Matrix c(1, a.cols());
    for (size_t i = 0; i < a.rows(); ++i)
        for (size_t j = 0; j < a.cols(); ++j)
            c.at(0, j) += a.at(i, j);
    return c;
}

Matrix
transpose(const Matrix &a)
{
    Matrix c;
    transposeInto(a, c);
    return c;
}

void
transposeInto(const Matrix &a, Matrix &out)
{
    out.resize(a.cols(), a.rows());
    for (size_t i = 0; i < a.rows(); ++i)
        for (size_t j = 0; j < a.cols(); ++j)
            out.at(j, i) = a.at(i, j);
}

void
addInPlace(Matrix &a, const Matrix &b)
{
    checkSameShape(a, b, "addInPlace");
    for (size_t i = 0; i < a.size(); ++i)
        a.raw()[i] += b.raw()[i];
}

void
axpyInPlace(Matrix &a, double s, const Matrix &b)
{
    checkSameShape(a, b, "axpyInPlace");
    for (size_t i = 0; i < a.size(); ++i)
        a.raw()[i] += s * b.raw()[i];
}

} // namespace neusight
