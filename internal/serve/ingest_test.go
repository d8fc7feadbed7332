package serve

import (
	"errors"
	"testing"
)

// TestGenSpecRejectedBeforeBuild feeds tiny request bodies naming enormous
// generators through ingestGraph under the default limits: each must be
// rejected as a resource limit by the declared-size pre-check, before a
// single vertex is allocated (if the check were missing, several of these
// would allocate tens of gigabytes and OOM the test).
func TestGenSpecRejectedBeforeBuild(t *testing.T) {
	s, err := New(Config{})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	for _, body := range []string{
		`{"gen":{"kind":"chain","n":2000000000}}`,
		`{"gen":{"kind":"chains","k":2000000000,"n":2000000000}}`,
		`{"gen":{"kind":"matmul","n":2000000}}`,
		`{"gen":{"kind":"composite","n":2000000}}`,
		`{"gen":{"kind":"outer","n":2000000000}}`,
		`{"gen":{"kind":"fft","n":1073741824}}`,
		`{"gen":{"kind":"jacobi","dim":3,"n":4000,"steps":100}}`,
		`{"gen":{"kind":"jacobi","dim":9,"n":30,"steps":5,"stencil":"box"}}`,
		`{"gen":{"kind":"heat","n":2000000000,"steps":2000000000}}`,
		`{"gen":{"kind":"cg","dim":3,"n":1000,"iterations":1000}}`,
		`{"gen":{"kind":"gmres","dim":3,"n":500,"iterations":1000}}`,
	} {
		_, err := s.ingestGraph([]byte(body))
		var se *Error
		if !errors.As(err, &se) || !errors.Is(se.Class, ErrResourceLimit) {
			t.Errorf("%s: err %v, want ErrResourceLimit", body, err)
		}
	}
}

// TestGenSpecOutOfDomainIsInvalid feeds specs whose parameters no generator
// accepts, at sizes that would exceed every limit if they meant anything:
// each must be rejected as invalid input (400), not as a resource limit
// (413), because the size estimate of an out-of-domain spec is zero.
func TestGenSpecOutOfDomainIsInvalid(t *testing.T) {
	s, err := New(Config{})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	for _, body := range []string{
		`{"gen":{"kind":"jacobi","dim":3,"n":100000,"steps":2,"stencil":"bogus"}}`,
		`{"gen":{"kind":"binomial","k":40}}`,
	} {
		_, err := s.ingestGraph([]byte(body))
		var se *Error
		if !errors.As(err, &se) || !errors.Is(se.Class, ErrInvalidInput) {
			t.Errorf("%s: err %v, want ErrInvalidInput", body, err)
		}
	}
}

// TestGenSpecFootprintRejection: a spec within the vertex/edge limits but
// whose estimated Workspace footprint exceeds the cache budget is rejected
// up front, mirroring the post-build cache admission.
func TestGenSpecFootprintRejection(t *testing.T) {
	s, nerr := New(Config{CacheBudget: 64 << 10, SolverLimit: 1})
	if nerr != nil {
		t.Fatalf("New: %v", nerr)
	}
	_, err := s.ingestGraph([]byte(`{"gen":{"kind":"jacobi","dim":2,"n":64,"steps":16}}`))
	var se *Error
	if !errors.As(err, &se) || !errors.Is(se.Class, ErrResourceLimit) {
		t.Fatalf("footprint over budget: err %v, want ErrResourceLimit", err)
	}
	// A small spec under the same budget still ingests.
	if _, err := s.ingestGraph([]byte(`{"gen":{"kind":"chain","n":64}}`)); err != nil {
		t.Fatalf("small spec under tight budget: %v", err)
	}
}
