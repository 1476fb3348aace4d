// Package clusterio defines the JSON description of a heterogeneous
// cluster shared by the command-line tools: a list of processors, each
// with a speed representation — an explicit piecewise linear function
// (measured points), a constant (the single-number legacy model), a
// step function (DLT-style levels), or a modelled machine spec that is
// expanded through the machine package for a named kernel.
package clusterio

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"

	"heteropart/internal/faults"
	"heteropart/internal/machine"
	"heteropart/internal/speed"
)

// Processor describes one cluster node. Exactly one of Points, Speed,
// Levels or Spec must be set.
type Processor struct {
	Name string `json:"name"`
	// Points: piecewise linear speed function (elements/second vs
	// elements), e.g. the output of cmd/speedbuild.
	Points []speed.Point `json:"points,omitempty"`
	// Qualities optionally records the measurement quality of the Points
	// knots (cmd/speedbuild's robust pipeline emits them). Entries pair a
	// knot size with its speed.Quality; sizes must match Points knots.
	Qualities []speed.PointQuality `json:"qualities,omitempty"`
	// Speed: constant speed; Max bounds its domain (defaults to the
	// problem size at partitioning time when zero).
	Speed float64 `json:"speed,omitempty"`
	Max   float64 `json:"max,omitempty"`
	// Levels: piecewise constant (step) speed function.
	Levels []speed.Level `json:"levels,omitempty"`
	// Spec: modelled machine expanded with the cluster's kernel.
	Spec *MachineSpec `json:"spec,omitempty"`
}

// MachineSpec mirrors machine.Machine for serialization.
type MachineSpec struct {
	OS          string             `json:"os,omitempty"`
	CPU         string             `json:"cpu,omitempty"`
	MHz         int                `json:"mhz"`
	MainMemKB   int                `json:"mainMemKB"`
	FreeMemKB   int                `json:"freeMemKB"`
	CacheKB     int                `json:"cacheKB"`
	PagingMM    int                `json:"pagingMM"`
	PagingLU    int                `json:"pagingLU"`
	Integration string             `json:"integration,omitempty"` // "low" or "high"
	PeakMFlops  map[string]float64 `json:"peakMFlops,omitempty"`
}

// Cluster is the top-level document.
type Cluster struct {
	// Kernel names the built-in kernel used to expand Spec processors
	// (default "MatrixMult").
	Kernel     string      `json:"kernel,omitempty"`
	Processors []Processor `json:"processors"`
	// Faults optionally schedules injected faults for fault-tolerance
	// runs, one spec per entry in the grammar of faults.ParseSpec with
	// processor names, e.g. "X1@t=1.5s", "X2@t=1s,slow=0.4,for=2s",
	// "link@t=0.5s,for=1s".
	Faults []string `json:"faults,omitempty"`
}

// readBufs recycles Load's read buffers: what decode returns, a Cluster
// or an error, copies every byte it keeps out of the buffer.
var readBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// Load reads a cluster document whole, decodes it in one pass (see
// decode.go for the contract that keeps every result encoding/json's) and
// validates it.
func Load(r io.Reader) (*Cluster, error) {
	buf := readBufs.Get().(*bytes.Buffer)
	buf.Reset()
	_, err := buf.ReadFrom(r)
	c, err := decode(buf.Bytes(), err)
	readBufs.Put(buf)
	if err != nil {
		return nil, err
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return c, nil
}

// Validate checks the document shape before any expensive expansion and
// returns actionable errors naming the offending processor: every
// processor must carry exactly one speed representation, measured points
// must have positive speeds and strictly increasing sizes, step levels
// must have increasing thresholds, constants must be positive, and every
// fault spec must parse against the processor names.
func (c *Cluster) Validate() error {
	if len(c.Processors) == 0 {
		return errors.New("clusterio: no processors (add a \"processors\" array)")
	}
	names := make([]string, len(c.Processors))
	for i, p := range c.Processors {
		name := p.Name
		if name == "" {
			name = fmt.Sprintf("proc%d", i)
		}
		names[i] = name
		reps := 0
		for _, set := range []bool{len(p.Points) > 0, p.Speed != 0, len(p.Levels) > 0, p.Spec != nil} {
			if set {
				reps++
			}
		}
		if reps != 1 {
			return fmt.Errorf("clusterio: processor %s must have exactly one of points, speed, levels, spec (has %d)", name, reps)
		}
		if p.Speed < 0 {
			return fmt.Errorf("clusterio: processor %s: negative speed %v (speeds are elements/second and must be positive)", name, p.Speed)
		}
		if p.Max < 0 {
			return fmt.Errorf("clusterio: processor %s: negative max %v", name, p.Max)
		}
		for j, pt := range p.Points {
			if pt.X < 0 || pt.Y < 0 {
				return fmt.Errorf("clusterio: processor %s: point %d is (%v, %v); sizes and speeds must be non-negative", name, j, pt.X, pt.Y)
			}
			if j > 0 && pt.X <= p.Points[j-1].X {
				return fmt.Errorf("clusterio: processor %s: point sizes must be strictly increasing, got %v after %v at index %d", name, pt.X, p.Points[j-1].X, j)
			}
		}
		if len(p.Qualities) > 0 {
			if len(p.Points) == 0 {
				return fmt.Errorf("clusterio: processor %s: qualities without points", name)
			}
			if len(p.Qualities) > len(p.Points) {
				return fmt.Errorf("clusterio: processor %s: %d qualities for %d points; at most one quality per knot", name, len(p.Qualities), len(p.Points))
			}
			sizes := make(map[float64]bool, len(p.Points))
			for _, pt := range p.Points {
				sizes[pt.X] = true
			}
			seen := make(map[float64]bool, len(p.Qualities))
			for j, pq := range p.Qualities {
				if !sizes[pq.X] {
					return fmt.Errorf("clusterio: processor %s: quality %d is for size %v, which is not a points knot", name, j, pq.X)
				}
				if seen[pq.X] {
					return fmt.Errorf("clusterio: processor %s: duplicate quality for size %v; the qualities vector must pair each knot at most once", name, pq.X)
				}
				seen[pq.X] = true
				if pq.Quality.Samples < 0 || pq.Quality.Rejected < 0 || pq.Quality.Retries < 0 || pq.Quality.RelWidth < 0 {
					return fmt.Errorf("clusterio: processor %s: quality %d has negative fields (%+v)", name, j, pq.Quality)
				}
			}
		}
		for j, lv := range p.Levels {
			if lv.UpTo <= 0 || lv.Y < 0 {
				return fmt.Errorf("clusterio: processor %s: level %d is (upTo %v, speed %v); thresholds must be positive and speeds non-negative", name, j, lv.UpTo, lv.Y)
			}
			if j > 0 && lv.UpTo <= p.Levels[j-1].UpTo {
				return fmt.Errorf("clusterio: processor %s: level thresholds must be strictly increasing, got %v after %v at index %d", name, lv.UpTo, p.Levels[j-1].UpTo, j)
			}
		}
	}
	if _, err := c.FaultPlan(); err != nil {
		return err
	}
	return nil
}

// FaultPlan parses the document's fault specs against the processor
// names. An absent faults section yields an empty plan.
func (c *Cluster) FaultPlan() (*faults.Plan, error) {
	names := make([]string, len(c.Processors))
	for i, p := range c.Processors {
		names[i] = p.Name
		if names[i] == "" {
			names[i] = fmt.Sprintf("proc%d", i)
		}
	}
	plan, err := faults.ParseSpecs(c.Faults, names)
	if err != nil {
		return nil, fmt.Errorf("clusterio: %w", err)
	}
	return plan, nil
}

// LoadFile reads and parses a cluster file.
func LoadFile(path string) (*Cluster, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	c, err := Load(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return c, nil
}

// Save writes the cluster as indented JSON.
func (c *Cluster) Save(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(c)
}

// Functions expands the cluster into named speed functions.
// defaultMax bounds constant-speed processors without an explicit Max.
func (c *Cluster) Functions(defaultMax float64) ([]speed.Function, []string, error) {
	kernelName := c.Kernel
	if kernelName == "" {
		kernelName = machine.MatrixMult.Name
	}
	fns := make([]speed.Function, len(c.Processors))
	names := make([]string, len(c.Processors))
	for i, p := range c.Processors {
		names[i] = p.Name
		if names[i] == "" {
			names[i] = fmt.Sprintf("proc%d", i)
		}
		reps := 0
		for _, set := range []bool{len(p.Points) > 0, p.Speed > 0, len(p.Levels) > 0, p.Spec != nil} {
			if set {
				reps++
			}
		}
		if reps != 1 {
			return nil, nil, fmt.Errorf("clusterio: processor %s must have exactly one of points, speed, levels, spec (has %d)", names[i], reps)
		}
		switch {
		case len(p.Points) > 0:
			f, err := speed.NewPiecewiseLinear(p.Points)
			if err != nil {
				return nil, nil, fmt.Errorf("clusterio: processor %s: %w", names[i], err)
			}
			fns[i] = f
		case p.Speed > 0:
			maxSize := p.Max
			if maxSize == 0 {
				maxSize = defaultMax
			}
			f, err := speed.NewConstant(p.Speed, maxSize)
			if err != nil {
				return nil, nil, fmt.Errorf("clusterio: processor %s: %w", names[i], err)
			}
			fns[i] = f
		case len(p.Levels) > 0:
			f, err := speed.NewStep(p.Levels)
			if err != nil {
				return nil, nil, fmt.Errorf("clusterio: processor %s: %w", names[i], err)
			}
			fns[i] = f
		default:
			m, err := p.Spec.toMachine(names[i])
			if err != nil {
				return nil, nil, err
			}
			k, err := machine.KernelByName(kernelName)
			if err != nil {
				return nil, nil, fmt.Errorf("clusterio: %w", err)
			}
			f, err := m.FlopRate(k)
			if err != nil {
				return nil, nil, err
			}
			fns[i] = f
		}
	}
	return fns, names, nil
}

func (s *MachineSpec) toMachine(name string) (machine.Machine, error) {
	integ := machine.LowIntegration
	switch s.Integration {
	case "", "low":
	case "high":
		integ = machine.HighIntegration
	default:
		return machine.Machine{}, fmt.Errorf("clusterio: processor %s: unknown integration %q", name, s.Integration)
	}
	m := machine.Machine{
		Spec: machine.Spec{
			Name: name, OS: s.OS, CPU: s.CPU,
			MHz: s.MHz, MainMemKB: s.MainMemKB, FreeMemKB: s.FreeMemKB,
			CacheKB: s.CacheKB, PagingMM: s.PagingMM, PagingLU: s.PagingLU,
		},
		Integration: integ,
		PeakMFlops:  s.PeakMFlops,
	}
	if err := m.Validate(); err != nil {
		return machine.Machine{}, fmt.Errorf("clusterio: %w", err)
	}
	return m, nil
}

// FromTestbed exports a machine testbed as a cluster document whose
// processors carry the full specs, expandable for any kernel.
func FromTestbed(ms []machine.Machine, kernel string) (*Cluster, error) {
	if len(ms) == 0 {
		return nil, errors.New("clusterio: empty testbed")
	}
	if kernel != "" {
		if _, err := machine.KernelByName(kernel); err != nil {
			return nil, fmt.Errorf("clusterio: %w", err)
		}
	}
	c := &Cluster{Kernel: kernel}
	for _, m := range ms {
		integ := "low"
		if m.Integration == machine.HighIntegration {
			integ = "high"
		}
		c.Processors = append(c.Processors, Processor{
			Name: m.Name,
			Spec: &MachineSpec{
				OS: m.OS, CPU: m.CPU, MHz: m.MHz,
				MainMemKB: m.MainMemKB, FreeMemKB: m.FreeMemKB, CacheKB: m.CacheKB,
				PagingMM: m.PagingMM, PagingLU: m.PagingLU,
				Integration: integ, PeakMFlops: m.PeakMFlops,
			},
		})
	}
	return c, nil
}
