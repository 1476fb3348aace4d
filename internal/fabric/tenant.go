// Package fabric turns a set of hetpartd instances into one sharded,
// multi-tenant serving fabric. It is the layer between the HTTP edge and
// the plan cache, and owns four concerns:
//
//   - tenant namespaces: every model label is tenant-qualified
//     ("tenant/model", validated grammar below) with a default tenant for
//     back-compat, so many tenants share one daemon without sharing a key
//     space;
//   - consistent-hash plan ownership: a jump hash over the static member
//     list assigns each (tenant, model, n) plan family an owning member
//     (ring.go), so a fleet of daemons partitions the plan key space
//     instead of every daemon caching everything;
//   - request forwarding: non-owners relay /v1/partition bodies to the
//     owner over keep-alive connections and relay the response bytes back
//     verbatim (forward.go) — forwarded answers are byte-identical to the
//     owner's local ones by construction;
//   - per-tenant admission and accounting: token-bucket quotas (quota.go)
//     and per-tenant request/tier counters (tenancy.go) lift the plan
//     cache's per-key doorkeeper to a per-tenant policy.
//
// See DESIGN §14 for the architecture.
package fabric

import (
	"bytes"
	"fmt"
	"strings"
)

// DefaultTenant is the namespace untenanted labels belong to: a label
// with no "/" separator reads and writes the same state as its
// "default/"-qualified spelling, which is how pre-fabric stores and
// clients keep working unchanged.
const DefaultTenant = "default"

// Label grammar bounds. Tenants are DNS-label-shaped (lowercase
// alphanumerics and '-', no leading/trailing '-'); models are printable
// ASCII with no spaces and no '/' (the separator).
const (
	maxTenantLen = 63
	maxModelLen  = 128
)

// Label is a parsed tenant-qualified model label.
type Label struct {
	Tenant string
	Model  string
}

// String renders the canonical spelling, always tenant-qualified:
// ParseLabel("m").String() is "default/m".
func (l Label) String() string { return l.Tenant + "/" + l.Model }

// ParseLabel validates a model label: "tenant/model", or a bare model
// name which parses into the default tenant. The result round-trips —
// ParseLabel(l.String()) returns l for any l ParseLabel produced (fuzzed
// in tenant_test.go).
func ParseLabel(s string) (Label, error) {
	tenant, model := DefaultTenant, s
	if i := strings.IndexByte(s, '/'); i >= 0 {
		tenant, model = s[:i], s[i+1:]
		if err := validateTenant(tenant); err != nil {
			return Label{}, err
		}
	}
	if err := validateModel(model); err != nil {
		return Label{}, err
	}
	return Label{Tenant: tenant, Model: model}, nil
}

func validateTenant(t string) error {
	if t == "" {
		return fmt.Errorf("empty tenant")
	}
	if len(t) > maxTenantLen {
		return fmt.Errorf("tenant longer than %d bytes", maxTenantLen)
	}
	if t[0] == '-' || t[len(t)-1] == '-' {
		return fmt.Errorf("tenant %q must not start or end with '-'", t)
	}
	for i := 0; i < len(t); i++ {
		c := t[i]
		if (c < 'a' || c > 'z') && (c < '0' || c > '9') && c != '-' {
			return fmt.Errorf("tenant %q: invalid byte %q (want [a-z0-9-])", t, c)
		}
	}
	return nil
}

func validateModel(m string) error {
	if m == "" {
		return fmt.Errorf("empty model name")
	}
	if len(m) > maxModelLen {
		return fmt.Errorf("model name longer than %d bytes", maxModelLen)
	}
	for i := 0; i < len(m); i++ {
		c := m[i]
		if c <= ' ' || c >= 0x7f || c == '/' {
			return fmt.Errorf("model name %q: invalid byte %q (want printable ASCII, no spaces, no '/')", m, c)
		}
	}
	return nil
}

// SplitLabel splits a label at its first '/'. ok reports whether a
// separator was present; without one the whole string is the model part.
func SplitLabel(s string) (tenant, model string, ok bool) {
	if i := strings.IndexByte(s, '/'); i >= 0 {
		return s[:i], s[i+1:], true
	}
	return "", s, false
}

// CanonicalLabel maps any label onto its stored spelling: already-
// qualified labels pass through, bare ones gain the default tenant. It is
// total (never fails): the store canonicalizes every label it is handed,
// valid under today's grammar or not, and strict validation belongs at
// the HTTP boundary (ParseLabel).
func CanonicalLabel(s string) string {
	if _, _, ok := SplitLabel(s); ok {
		return s
	}
	return DefaultTenant + "/" + s
}

// defaultTenantBytes backs TenantSpan's zero-allocation default.
var defaultTenantBytes = []byte(DefaultTenant)

// TenantSpan splits a wire model name into its tenant and family parts
// without allocating: the bytes before the first '/', or the default
// tenant when the name is untenanted. The family part is what ownership
// hashes — "m" and "default/m" address the same plan family.
func TenantSpan(model []byte) (tenant, family []byte) {
	if i := bytes.IndexByte(model, '/'); i >= 0 {
		return model[:i], model[i+1:]
	}
	return defaultTenantBytes, model
}
