#ifndef MCOND_CORE_SERIALIZE_H_
#define MCOND_CORE_SERIALIZE_H_

#include <iosfwd>
#include <string>

#include "core/csr_matrix.h"
#include "core/status.h"
#include "core/tensor.h"

namespace mcond {

/// Binary (de)serialization for the numeric containers. The condensed
/// artifact (synthetic graph + mapping) is the *deployment* output of this
/// library — it is produced offline and shipped to serving hosts, so it
/// needs a stable on-disk form. Format: little-endian, magic-tagged,
/// versioned; see serialize.cc for the layout.
///
/// Writers abort only on programming errors; I/O and format problems come
/// back as Status (corrupt input is expected in the field, not a bug).

Status WriteTensor(std::ostream& out, const Tensor& t);
StatusOr<Tensor> ReadTensor(std::istream& in);

Status WriteCsrMatrix(std::ostream& out, const CsrMatrix& m);
StatusOr<CsrMatrix> ReadCsrMatrix(std::istream& in);

/// Whole-file helpers.
Status SaveTensor(const std::string& path, const Tensor& t);
StatusOr<Tensor> LoadTensor(const std::string& path);

}  // namespace mcond

#endif  // MCOND_CORE_SERIALIZE_H_
