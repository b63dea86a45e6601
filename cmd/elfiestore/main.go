// elfiestore inspects and maintains a content-addressed checkpoint store —
// the cache the pipeline fills with pinballs, ELFies, and profiles so warm
// re-runs skip logging and conversion entirely. With -remote it also moves
// artifacts to and from an elfieregistry: resumable, dedup-negotiated
// transfers that re-send nothing either side already holds.
//
// Usage:
//
//	elfiestore -store work/cache ls
//	elfiestore -store work/cache stats
//	elfiestore -store work/cache verify [-lint]
//	elfiestore -store work/cache gc [-max-age 720h] [-dry-run]
//	elfiestore -store work/cache -remote http://host:9535 push KEY...
//	elfiestore -store work/cache -remote http://host:9535 pull KEY...
//	elfiestore -store work/cache -remote http://host:9535 sync
//	elfiestore -store work/cache -remote http://host:9535 verify
//
// verify with -remote runs the registry's server-side deep verify alongside
// the local one and merges the reports, each problem attributed to the side
// that observed it.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"time"

	"elfie/internal/cli"
	"elfie/internal/registry"
	"elfie/internal/store"
)

func main() {
	c := cli.Register(cli.FlagStore | cli.FlagRemote)
	crashAfter := flag.Int("crash-after", 0,
		"abort after N completed pieces or chunks (transfer-resume testing)")
	flag.Parse()

	if c.StoreDir == "" || flag.NArg() < 1 {
		cli.Die(fmt.Errorf("usage: elfiestore -store DIR [-remote URL] {ls|stats|verify|gc|push|pull|sync}"))
	}
	// Subcommand flags come after the subcommand, so they need their own
	// FlagSet: the global parse stops at the first non-flag argument.
	gcFlags := flag.NewFlagSet("gc", flag.ExitOnError)
	maxAge := gcFlags.Duration("max-age", 0, "expire entries unused for this long (0 = never)")
	dryRun := gcFlags.Bool("dry-run", false, "report without removing")
	verifyFlags := flag.NewFlagSet("verify", flag.ExitOnError)
	lint := verifyFlags.Bool("lint", false, "statically verify cached ELFies (elflint)")
	lsFlags := flag.NewFlagSet("ls", flag.ExitOnError)
	full := lsFlags.Bool("full", false, "print full keys and object IDs (script-friendly)")
	keys := flag.Args()[1:]
	if len(keys) > 0 {
		switch flag.Arg(0) {
		case "gc":
			if err := gcFlags.Parse(keys); err != nil {
				cli.Die(err)
			}
			keys = nil
		case "verify":
			if err := verifyFlags.Parse(keys); err != nil {
				cli.Die(err)
			}
			keys = nil
		case "ls":
			if err := lsFlags.Parse(keys); err != nil {
				cli.Die(err)
			}
			keys = nil
		case "push", "pull":
		default:
			cli.Die(fmt.Errorf("unexpected arguments after %q", flag.Arg(0)))
		}
	}
	s, err := store.Open(c.StoreDir)
	if err != nil {
		cli.DieClassified(err)
	}
	client := c.Client()
	if client != nil {
		client.CrashAfter = *crashAfter
	}
	needRemote := func(cmd string) *registry.Client {
		if client == nil {
			cli.Die(fmt.Errorf("%s needs -remote", cmd))
		}
		return client
	}

	switch cmd := flag.Arg(0); cmd {
	case "ls":
		entries := s.Entries()
		abbrev := short
		if *full {
			abbrev = func(id string) string { return id }
		}
		fmt.Printf("%-16s %-10s %-16s %10s %6s  %s\n",
			"key", "kind", "object", "bytes", "files", "last used")
		for _, e := range entries {
			fmt.Printf("%-16s %-10s %-16s %10d %6d  %s\n",
				abbrev(e.Key), e.Kind, abbrev(e.Object), e.Size, e.Files,
				e.LastUsed.UTC().Format(time.RFC3339))
		}
		fmt.Printf("%d entries\n", len(entries))

	case "stats":
		st, err := s.Stats()
		if err != nil {
			cli.DieClassified(err)
		}
		fmt.Printf("entries:       %d\n", st.Entries)
		fmt.Printf("objects:       %d (+%d chunk objects)\n", st.Objects, st.ChunkObjects)
		fmt.Printf("physical:      %d bytes\n", st.Bytes)
		fmt.Printf("logical:       %d bytes\n", st.LogicalBytes)
		fmt.Printf("dedup saved:   %d bytes (ratio %.2fx)\n", st.DedupSaved, st.DedupRatio)
		for _, k := range st.SortedKinds() {
			fmt.Printf("  kind %-10s %6d entries %12d bytes\n", k, st.Kinds[k], st.KindBytes[k])
		}

	case "verify":
		rep, err := s.VerifyWith(store.VerifyOptions{Lint: *lint})
		if err != nil {
			cli.DieClassified(err)
		}
		fmt.Printf("local:  checked %d entries (%d pinballs, %d checkpoints, %d linted, %d unverified legacy)\n",
			rep.Checked, rep.Pinballs, rep.Checkpoints, rep.Linted, rep.Unverified)
		problems := 0
		for _, p := range rep.Problems {
			problems++
			fmt.Fprintf(os.Stderr, "CORRUPT local  key=%s object=%s: %v\n",
				short(p.Key), short(p.Object), p.Err)
		}
		if client != nil {
			rrep, err := client.Verify(*lint)
			if err != nil {
				cli.DieClassified(err)
			}
			fmt.Printf("remote: checked %d entries (%d pinballs, %d checkpoints, %d linted, %d unverified legacy)\n",
				rrep.Checked, rrep.Pinballs, rrep.Checkpoints, rrep.Linted, rrep.Unverified)
			for _, p := range rrep.Problems {
				problems++
				fmt.Fprintf(os.Stderr, "CORRUPT remote key=%s object=%s: %s\n",
					short(p.Key), short(p.Object), p.Err)
			}
		}
		if problems > 0 {
			cli.DieClassified(fmt.Errorf("%w: %d object(s) failed verification",
				store.ErrCorrupt, problems))
		}
		fmt.Println("ok")

	case "gc":
		rep, err := s.GC(store.GCOptions{MaxAge: *maxAge, DryRun: *dryRun})
		if err != nil {
			cli.DieClassified(err)
		}
		verb := "removed"
		if *dryRun {
			verb = "would remove"
		}
		fmt.Printf("%s: %d expired entries, %d orphan objects, %d staging dirs, %d bytes\n",
			verb, rep.ExpiredEntries, rep.OrphanObjects, rep.TmpDebris, rep.BytesReclaimed)

	case "push":
		r := needRemote(cmd)
		if len(keys) == 0 {
			cli.Die(fmt.Errorf("push needs at least one key"))
		}
		for _, key := range keys {
			st, err := r.Push(s, key)
			if err != nil {
				reportTransfer("push", key, st, err)
				cli.DieClassified(err)
			}
			reportTransfer("push", key, st, nil)
		}

	case "pull":
		r := needRemote(cmd)
		if len(keys) == 0 {
			cli.Die(fmt.Errorf("pull needs at least one key"))
		}
		for _, key := range keys {
			_, st, err := r.Pull(s, key)
			if err != nil {
				reportTransfer("pull", key, st, err)
				cli.DieClassified(err)
			}
			reportTransfer("pull", key, st, nil)
		}

	case "sync":
		r := needRemote(cmd)
		// Push everything local, then pull whatever the registry has that we
		// do not; warm entries on either side cost one manifest round trip.
		local := s.Entries()
		haveLocal := make(map[string]bool, len(local))
		for _, e := range local {
			haveLocal[e.Key] = true
			st, err := r.Push(s, e.Key)
			if err != nil {
				reportTransfer("push", e.Key, st, err)
				cli.DieClassified(err)
			}
			reportTransfer("push", e.Key, st, nil)
		}
		remote, err := r.Entries()
		if err != nil {
			cli.DieClassified(err)
		}
		for _, e := range remote {
			if haveLocal[e.Key] {
				continue
			}
			_, st, err := r.Pull(s, e.Key)
			if err != nil {
				reportTransfer("pull", e.Key, st, err)
				cli.DieClassified(err)
			}
			reportTransfer("pull", e.Key, st, nil)
		}

	default:
		cli.Die(fmt.Errorf("unknown command %q (want ls, stats, verify, gc, push, pull, or sync)", cmd))
	}
}

// reportTransfer prints one push/pull outcome, including partial progress on
// failure (a crashed transfer's stats show what the resume will skip).
func reportTransfer(verb, key string, st *registry.TransferStats, err error) {
	if err != nil {
		if errors.Is(err, registry.ErrCrashed) && st != nil {
			fmt.Fprintf(os.Stderr, "%s %s: crashed after %d sent / %d received (%d bytes) / %d skipped\n",
				verb, key, st.Sent, st.Received, st.Bytes, st.Skipped)
		}
		return
	}
	moved := st.Sent + st.Received
	if moved == 0 {
		fmt.Printf("%s %s: up to date (0 bytes)\n", verb, key)
		return
	}
	fmt.Printf("%s %s: %d pieces and chunks, %d bytes (%d skipped as already present, resumed at byte %d)\n",
		verb, key, moved, st.Bytes, st.Skipped, st.Resumed)
}

// short abbreviates a hex ID for display.
func short(id string) string {
	if len(id) > 12 {
		return id[:12]
	}
	return id
}
