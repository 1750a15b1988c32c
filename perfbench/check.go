package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"slices"
)

// checks tallies output checks and describes the ones that failed.
type checks struct {
	n, failed int
	problems  []string
}

func (c *checks) add(ok bool, format string, args ...any) {
	c.n++
	if !ok {
		c.failed++
		c.problems = append(c.problems, fmt.Sprintf(format, args...))
	}
}

// checkCSVs checks the CSV set a run wrote to dir: exactly the workload's
// files, and, when refDir is not empty, each byte-identical to its
// namesake there. It returns the SHA-256 over every file's name and bytes
// in name order, so runs of two commits at any seed can be compared for
// simulated-result identity.
func checkCSVs(c *checks, dir string, want []string, refDir string) (string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return "", err
	}
	var got []string
	for _, e := range entries {
		if filepath.Ext(e.Name()) == ".csv" {
			got = append(got, e.Name())
		}
	}
	slices.Sort(got)
	sorted := slices.Clone(want)
	slices.Sort(sorted)
	c.add(slices.Equal(got, sorted), "wrote %v, want %v", got, sorted)

	h := sha256.New()
	for _, name := range got {
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return "", err
		}
		fmt.Fprintf(h, "%s %d\n", name, len(b))
		h.Write(b)
		if refDir == "" {
			continue
		}
		ref, err := os.ReadFile(filepath.Join(refDir, name))
		c.add(err == nil && bytes.Equal(b, ref), "%s differs from %s", name, filepath.Join(refDir, name))
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// checkRun checks one child run: its CSVs (against refDir at the seed the
// references were made with), its campaign audits, and that its digest
// equals the previous run's at this seed (want = "" for the first run).
func checkRun(c *checks, cr *childReport, dir string, w workload, refDir, want string) (string, error) {
	digest, err := checkCSVs(c, dir, w.csvs, refDir)
	if err != nil {
		return "", err
	}
	for _, a := range cr.Audits {
		c.add(a.OK, "audit %s failed", a.Name)
	}
	if want != "" {
		c.add(digest == want, "digest %s differs from the first run's %s", digest, want)
	}
	return digest, nil
}
