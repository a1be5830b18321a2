// Command typepre is a file-based CLI for the type-and-identity PRE
// scheme, covering the full lifecycle an integrator needs:
//
//	typepre setup   -name kgc1 -out kgc1.params -master kgc1.master
//	typepre extract -master kgc1.master -id alice@x -out alice.key
//	typepre encrypt -params kgc1.params -key alice.key -type emergency \
//	                -in record.txt -out record.ct
//	typepre decrypt -params kgc1.params -key alice.key -in record.ct
//	typepre rekey   -params kgc1.params -key alice.key \
//	                -to-params kgc2.params -to bob@y -type emergency -out e.rk
//	typepre reencrypt -in record.ct -rekey e.rk -out record.rct
//	typepre redecrypt -params kgc2.params -key bob.key -in record.rct
//
// Key and parameter files are raw binary; treat master and private key
// files like any other secret material.
package main

import (
	"errors"
	"fmt"
	"io"
	"os"

	"typepre/internal/core"
	"typepre/internal/hybrid"
	"typepre/internal/ibe"
)

// errUsage reports a command line that names no known command. run has
// already printed the usage for it.
var errUsage = errors.New("usage")

func main() {
	err := run(os.Args[1:], os.Stdout, os.Stderr)
	switch {
	case errors.Is(err, errUsage):
		os.Exit(2)
	case err != nil:
		fmt.Fprintf(os.Stderr, "typepre %v\n", err)
		os.Exit(1)
	}
}

// run executes one command line (without the program name). Plaintexts
// and progress lines go to stdout, the usage to stderr; a failed command
// returns its error prefixed with the command name.
func run(args []string, stdout, stderr io.Writer) error {
	if len(args) < 1 {
		usage(stderr)
		return errUsage
	}
	commands := map[string]func([]string, io.Writer) error{
		"setup":     cmdSetup,
		"extract":   cmdExtract,
		"encrypt":   cmdEncrypt,
		"decrypt":   cmdDecrypt,
		"rekey":     cmdRekey,
		"reencrypt": cmdReencrypt,
		"redecrypt": cmdRedecrypt,
	}
	cmd, args := args[0], args[1:]
	if cmd == "help" || cmd == "-h" || cmd == "--help" {
		usage(stderr)
		return nil
	}
	f, ok := commands[cmd]
	if !ok {
		fmt.Fprintf(stderr, "typepre: unknown command %q\n", cmd)
		usage(stderr)
		return errUsage
	}
	if err := f(args, stdout); err != nil {
		return fmt.Errorf("%s: %w", cmd, err)
	}
	return nil
}

func usage(w io.Writer) {
	fmt.Fprintln(w, `usage: typepre <command> [flags]

commands:
  setup      create a KGC (public params + master key files)
  extract    derive an identity private key from a master key
  encrypt    seal a file under (identity, type)
  decrypt    open a sealed file with the owner key
  rekey      create a per-type re-encryption key toward a delegatee
  reencrypt  transform a sealed file with a rekey (proxy role)
  redecrypt  open a re-encrypted file with the delegatee key`)
}

// flagMap parses -k v pairs.
func flagMap(args []string, required ...string) (map[string]string, error) {
	m := map[string]string{}
	for i := 0; i < len(args); i += 2 {
		if i+1 >= len(args) || len(args[i]) < 2 || args[i][0] != '-' {
			return nil, fmt.Errorf("malformed flags near %q", args[i])
		}
		m[args[i][1:]] = args[i+1]
	}
	for _, r := range required {
		if m[r] == "" {
			return nil, fmt.Errorf("missing required flag -%s", r)
		}
	}
	return m, nil
}

func cmdSetup(args []string, stdout io.Writer) error {
	f, err := flagMap(args, "name", "out", "master")
	if err != nil {
		return err
	}
	kgc, err := ibe.Setup(f["name"], nil)
	if err != nil {
		return err
	}
	if err := os.WriteFile(f["out"], kgc.Params().Marshal(), 0o644); err != nil {
		return err
	}
	// The master key is serialized as the name + the exponent; re-creating
	// the KGC from it is supported via ibe.Restore.
	if err := os.WriteFile(f["master"], kgc.MarshalMaster(), 0o600); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "wrote %s (public) and %s (secret)\n", f["out"], f["master"])
	return nil
}

func cmdExtract(args []string, stdout io.Writer) error {
	f, err := flagMap(args, "master", "id", "out")
	if err != nil {
		return err
	}
	masterData, err := os.ReadFile(f["master"])
	if err != nil {
		return err
	}
	kgc, err := ibe.RestoreKGC(masterData)
	if err != nil {
		return err
	}
	key := kgc.Extract(f["id"])
	if err := os.WriteFile(f["out"], key.Marshal(), 0o600); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "extracted key for %s → %s\n", f["id"], f["out"])
	return nil
}

func loadDelegator(paramsPath, keyPath string) (*core.Delegator, error) {
	paramsData, err := os.ReadFile(paramsPath)
	if err != nil {
		return nil, err
	}
	params, err := ibe.UnmarshalParams(paramsData)
	if err != nil {
		return nil, err
	}
	keyData, err := os.ReadFile(keyPath)
	if err != nil {
		return nil, err
	}
	key, err := ibe.UnmarshalPrivateKey(keyData, params)
	if err != nil {
		return nil, err
	}
	return core.NewDelegator(key), nil
}

func cmdEncrypt(args []string, stdout io.Writer) error {
	f, err := flagMap(args, "params", "key", "type", "in", "out")
	if err != nil {
		return err
	}
	d, err := loadDelegator(f["params"], f["key"])
	if err != nil {
		return err
	}
	msg, err := os.ReadFile(f["in"])
	if err != nil {
		return err
	}
	ct, err := hybrid.Encrypt(d, msg, core.Type(f["type"]), nil)
	if err != nil {
		return err
	}
	if err := os.WriteFile(f["out"], ct.Marshal(), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "sealed %d bytes under type %q → %s\n", len(msg), f["type"], f["out"])
	return nil
}

func cmdDecrypt(args []string, stdout io.Writer) error {
	f, err := flagMap(args, "params", "key", "in")
	if err != nil {
		return err
	}
	d, err := loadDelegator(f["params"], f["key"])
	if err != nil {
		return err
	}
	data, err := os.ReadFile(f["in"])
	if err != nil {
		return err
	}
	ct, err := hybrid.UnmarshalCiphertext(data)
	if err != nil {
		return err
	}
	msg, err := hybrid.Decrypt(d, ct)
	if err != nil {
		return err
	}
	if out := f["out"]; out != "" {
		return os.WriteFile(out, msg, 0o644)
	}
	_, err = stdout.Write(msg)
	return err
}

func cmdRekey(args []string, stdout io.Writer) error {
	f, err := flagMap(args, "params", "key", "to-params", "to", "type", "out")
	if err != nil {
		return err
	}
	d, err := loadDelegator(f["params"], f["key"])
	if err != nil {
		return err
	}
	toParamsData, err := os.ReadFile(f["to-params"])
	if err != nil {
		return err
	}
	toParams, err := ibe.UnmarshalParams(toParamsData)
	if err != nil {
		return err
	}
	rk, err := d.Delegate(toParams, f["to"], core.Type(f["type"]), nil)
	if err != nil {
		return err
	}
	if err := os.WriteFile(f["out"], rk.Marshal(), 0o600); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "rekey %s:%s → %s written to %s\n", d.ID(), f["type"], f["to"], f["out"])
	return nil
}

func cmdReencrypt(args []string, stdout io.Writer) error {
	f, err := flagMap(args, "in", "rekey", "out")
	if err != nil {
		return err
	}
	data, err := os.ReadFile(f["in"])
	if err != nil {
		return err
	}
	ct, err := hybrid.UnmarshalCiphertext(data)
	if err != nil {
		return err
	}
	rkData, err := os.ReadFile(f["rekey"])
	if err != nil {
		return err
	}
	rk, err := core.UnmarshalReKey(rkData)
	if err != nil {
		return err
	}
	rct, err := hybrid.ReEncrypt(ct, rk)
	if err != nil {
		return err
	}
	if err := os.WriteFile(f["out"], rct.Marshal(), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "re-encrypted for %s → %s\n", rk.DelegateeID, f["out"])
	return nil
}

func cmdRedecrypt(args []string, stdout io.Writer) error {
	f, err := flagMap(args, "params", "key", "in")
	if err != nil {
		return err
	}
	paramsData, err := os.ReadFile(f["params"])
	if err != nil {
		return err
	}
	params, err := ibe.UnmarshalParams(paramsData)
	if err != nil {
		return err
	}
	keyData, err := os.ReadFile(f["key"])
	if err != nil {
		return err
	}
	key, err := ibe.UnmarshalPrivateKey(keyData, params)
	if err != nil {
		return err
	}
	data, err := os.ReadFile(f["in"])
	if err != nil {
		return err
	}
	rct, err := hybrid.UnmarshalReCiphertext(data)
	if err != nil {
		return err
	}
	msg, err := hybrid.DecryptReEncrypted(key, rct)
	if err != nil {
		return err
	}
	if out := f["out"]; out != "" {
		return os.WriteFile(out, msg, 0o644)
	}
	_, err = stdout.Write(msg)
	return err
}
