// Package gen constructs the CDAGs of the computations analyzed in the paper
// and of the classical kernels used to validate the lower-bound machinery:
//
//   - dense matrix multiplication, vector outer products, dot products and
//     AXPY updates (the building blocks of Section 3's composite example);
//   - the Section-3 composite computation sum((p·qᵀ)(r·sᵀ));
//   - FFT butterfly graphs, binomial trees and r-pyramids (related-work
//     kernels with known I/O bounds, useful as cross-checks);
//   - d-dimensional Jacobi stencils over T time steps (Section 5.4);
//   - the per-iteration CDAGs of Conjugate Gradient (Figure 3, Section 5.2)
//     and GMRES (Figure 4, Section 5.3) on regular grids.
//
// All generators are deterministic: the same parameters always produce the
// same graph, with the same vertex numbering.
//
// The catalog (catalog.go) names these families for everything that builds
// graphs from data: cdagd uploads, cdagx workloads and the CLIs' -kernel
// flag.  A Spec names a kind and its parameters; Build constructs it, Key
// renders its canonical identity and Estimate bounds its size without
// building.  A kind is added to the catalog table and nowhere else.
package gen
