package obs

import (
	"encoding/json"
	"fmt"
	"os"
	osexec "os/exec"
	"runtime"
	"strings"
	"time"
)

// Manifest is the end-of-run record a cmd writes with -metrics-out: what
// ran (tool, arguments, code revision, Go version), how long it took, and
// the full metrics snapshot. It is the machine-readable counterpart of the
// -progress summary line, and the input the CI bench-regression gate and
// any cross-run comparison consume.
type Manifest struct {
	Tool        string    `json:"tool"`
	Args        []string  `json:"args"`
	GitRev      string    `json:"git_rev"`
	GoVersion   string    `json:"go_version"`
	Start       time.Time `json:"start"`
	WallSeconds float64   `json:"wall_seconds"`
	Metrics     Snapshot  `json:"metrics"`
}

// GitRevFallback is recorded when the working tree has no resolvable git
// revision (tarball checkouts, missing git binary).
const GitRevFallback = "unknown"

// GitRev resolves the HEAD commit of the repository containing dir, or
// GitRevFallback when there is none.
func GitRev(dir string) string {
	cmd := osexec.Command("git", "-C", dir, "rev-parse", "HEAD")
	out, err := cmd.Output()
	rev := strings.TrimSpace(string(out))
	if err != nil || rev == "" {
		return GitRevFallback
	}
	return rev
}

// NewManifest assembles a manifest for a run that began at start: args are
// the tool's command-line arguments, r is the registry to snapshot (nil
// selects Default).
func NewManifest(tool string, args []string, start time.Time, r *Registry) *Manifest {
	if r == nil {
		r = Default()
	}
	return &Manifest{
		Tool:        tool,
		Args:        args,
		GitRev:      GitRev("."),
		GoVersion:   runtime.Version(),
		Start:       start.UTC(),
		WallSeconds: time.Since(start).Seconds(),
		Metrics:     r.Snapshot(),
	}
}

// WriteFile serializes the manifest as indented JSON to path.
func (m *Manifest) WriteFile(path string) error {
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return fmt.Errorf("obs: marshal manifest: %w", err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("obs: write manifest: %w", err)
	}
	return nil
}
