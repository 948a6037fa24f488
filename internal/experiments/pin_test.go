package experiments

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// tablesPinFile holds one sha256 per (grid, experiment) pair: the hash of
// the experiment's rendered output (Result.String) on the full and the
// -short grids. Any byte that moves in any table fails TestTablesPinned.
var tablesPinFile = filepath.Join("testdata", "tables.sha256")

// updateTables rewrites tablesPinFile's lines for the active grid. Use it
// only for an intentional table change, and record the cause.
var updateTables = flag.Bool("update-tables", false, "rewrite testdata/tables.sha256 for the active grid")

func gridName(short bool) string {
	if short {
		return "short"
	}
	return "full"
}

// readTablePins parses tablesPinFile into "grid/id" -> hash.
func readTablePins(t *testing.T) map[string]string {
	t.Helper()
	pins := map[string]string{}
	f, err := os.Open(tablesPinFile)
	if os.IsNotExist(err) {
		return pins
	}
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fs := strings.Fields(line)
		if len(fs) != 3 {
			t.Fatalf("%s: malformed line %q (want: <grid> <id> <sha256>)", tablesPinFile, line)
		}
		pins[fs[0]+"/"+fs[1]] = fs[2]
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return pins
}

// writeTablePins writes pins sorted by grid and id.
func writeTablePins(t *testing.T, pins map[string]string) {
	t.Helper()
	var b strings.Builder
	b.WriteString("# sha256 of each experiment's rendered tables (Result.String), per grid.\n")
	b.WriteString("# Regenerate only for an intentional table change:\n")
	b.WriteString("#   go test ./internal/experiments -run TestTablesPinned -update-tables [-short]\n")
	for _, grid := range []string{"full", "short"} {
		for _, id := range IDs() {
			if h, ok := pins[grid+"/"+id]; ok {
				fmt.Fprintf(&b, "%s %s %s\n", grid, id, h)
			}
		}
	}
	if err := os.WriteFile(tablesPinFile, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestTablesPinned hashes every catalog experiment's rendered tables on
// the active grid (full under `go test`, scaled-down under -short) and
// compares each hash with the checked-in pin, so a change that moves any
// table byte fails tier-1 with the experiment id and both hashes.
func TestTablesPinned(t *testing.T) {
	useGrids(t)
	grid := gridName(Short())
	pins := readTablePins(t)
	got := map[string]string{}
	t.Run("hash", func(t *testing.T) {
		for _, id := range IDs() {
			id := id
			t.Run(id, func(t *testing.T) {
				t.Parallel()
				sum := sha256.Sum256([]byte(runCached(t, id).String()))
				h := hex.EncodeToString(sum[:])
				resultMu.Lock()
				got[id] = h
				resultMu.Unlock()
			})
		}
	})
	if *updateTables {
		for id, h := range got {
			pins[grid+"/"+id] = h
		}
		writeTablePins(t, pins)
		return
	}
	for _, id := range IDs() {
		h, ok := got[id]
		if !ok {
			continue // the hash subtest already failed
		}
		want, ok := pins[grid+"/"+id]
		switch {
		case !ok:
			t.Errorf("%s (%s grid): no pinned hash in %s; got %s", id, grid, tablesPinFile, h)
		case want != h:
			t.Errorf("%s (%s grid): table hash %s, pinned %s", id, grid, h, want)
		}
	}
}
