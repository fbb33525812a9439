#ifndef PROVDB_PROVENANCE_AUDITOR_H_
#define PROVDB_PROVENANCE_AUDITOR_H_

#include "provenance/verifier.h"

namespace provdb::provenance {

/// The in-place store audit is ProvenanceVerifier::Audit.
using StoreAuditor = ProvenanceVerifier;

}  // namespace provdb::provenance

#endif  // PROVDB_PROVENANCE_AUDITOR_H_
