package typepre_test

import (
	"errors"
	"fmt"
	"log"

	"typepre"
)

// Example walks the full delegation lifecycle: two KGC domains, typed
// encryption, the owner reading their own record back, a per-type proxy
// key, the proxy transformation, and the delegatee's decryption with only
// their own key.
func Example() {
	kgc1, err := typepre.Setup("hospital-kgc", nil)
	if err != nil {
		log.Fatal(err)
	}
	kgc2, err := typepre.Setup("clinic-kgc", nil)
	if err != nil {
		log.Fatal(err)
	}

	alice := typepre.NewDelegator(kgc1.Extract("alice@hospital.example"))
	bobKey := kgc2.Extract("bob@clinic.example")

	msg := []byte("blood type O−")
	ct, err := typepre.EncryptBytes(alice, msg, "emergency", nil)
	if err != nil {
		log.Fatal(err)
	}
	own, err := typepre.DecryptBytes(alice, ct)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("owner reads:", string(own))

	rk, err := alice.Delegate(kgc2.Params(), "bob@clinic.example", "emergency", nil)
	if err != nil {
		log.Fatal(err)
	}
	rct, err := typepre.ReEncryptBytes(ct, rk)
	if err != nil {
		log.Fatal(err)
	}
	got, err := typepre.DecryptBytesReEncrypted(bobKey, rct)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("delegatee reads:", string(got))
	// Output:
	// owner reads: blood type O−
	// delegatee reads: blood type O−
}

// Example_multidomain is the paper's cross-domain setting: the delegator
// is registered at one KGC and the delegatee at an unrelated one (they
// share only the curve parameters), and every artifact crosses the wire
// in serialized form, as it would between two organizations.
func Example_multidomain() {
	// wire is the untrusted channel: it carries only byte slices.
	wire := map[string][]byte{}

	// Domain 1, the hospital.
	kgc1, err := typepre.Setup("hospital-kgc", nil)
	if err != nil {
		log.Fatal(err)
	}
	alice := typepre.NewDelegator(kgc1.Extract("alice@hospital.example"))

	// Domain 2, the insurer, publishes its parameters.
	kgc2, err := typepre.Setup("insurer-kgc", nil)
	if err != nil {
		log.Fatal(err)
	}
	auditorKey := kgc2.Extract("auditor@insurer.example")
	wire["insurer-params"] = kgc2.Params().Marshal()

	// The hospital imports them, encrypts and delegates one type.
	insurerParams, err := typepre.UnmarshalParams(wire["insurer-params"])
	if err != nil {
		log.Fatal(err)
	}
	m, err := typepre.RandomMessage(nil)
	if err != nil {
		log.Fatal(err)
	}
	ct, err := alice.Encrypt(m, "billing", nil)
	if err != nil {
		log.Fatal(err)
	}
	rk, err := alice.Delegate(insurerParams, "auditor@insurer.example", "billing", nil)
	if err != nil {
		log.Fatal(err)
	}
	wire["ciphertext"] = ct.Marshal()
	wire["rekey"] = rk.Marshal()
	fmt.Printf("hospital ships ciphertext (%d B) and rekey (%d B)\n",
		len(wire["ciphertext"]), len(wire["rekey"]))

	// The proxy, anywhere, transforms the serialized artifacts.
	proxyCT, err := typepre.UnmarshalCiphertext(wire["ciphertext"])
	if err != nil {
		log.Fatal(err)
	}
	proxyRK, err := typepre.UnmarshalReKey(wire["rekey"])
	if err != nil {
		log.Fatal(err)
	}
	rct, err := typepre.ReEncrypt(proxyCT, proxyRK)
	if err != nil {
		log.Fatal(err)
	}
	wire["reciphertext"] = rct.Marshal()
	fmt.Printf("proxy transforms for %s (reciphertext: %d B)\n",
		proxyRK.DelegateeID, len(wire["reciphertext"]))

	// The insurer decrypts with its own domain's key.
	auditorRCT, err := typepre.UnmarshalReCiphertext(wire["reciphertext"])
	if err != nil {
		log.Fatal(err)
	}
	got, err := typepre.DecryptReEncrypted(auditorKey, auditorRCT)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("auditor decrypts:", got.Equal(m))

	// Tampered wire data is rejected when it is decoded, before any
	// decryption.
	bad := append([]byte(nil), wire["ciphertext"]...)
	bad[0] ^= 0xff
	_, err = typepre.UnmarshalCiphertext(bad)
	fmt.Println("tampered ciphertext rejected:", err != nil)
	// Output:
	// hospital ships ciphertext (523 B) and rekey (640 B)
	// proxy transforms for auditor@insurer.example (reciphertext: 1088 B)
	// auditor decrypts: true
	// tampered ciphertext rejected: true
}

// Example_emailForwarding is the e-mail forwarding use case from the PRE
// literature (§1): while Alice is on vacation her mail server re-encrypts
// incoming mail to her assistant, but only the "work" folder. Personal and
// medical mail stays sealed, though it sits on the same server under the
// same key pair. Delegator and delegatee share one KGC here.
func Example_emailForwarding() {
	corpKGC, err := typepre.Setup("corp-kgc", nil)
	if err != nil {
		log.Fatal(err)
	}
	alice := typepre.NewDelegator(corpKGC.Extract("alice@corp.example"))
	assistantKey := corpKGC.Extract("assistant@corp.example")

	// Alice's mailbox: work and personal mail, all sealed under her one
	// key pair.
	type email struct {
		subject string
		folder  typepre.Type
		sealed  *typepre.HybridCiphertext
	}
	var mailbox []email
	for _, m := range []struct {
		subject, body string
		folder        typepre.Type
	}{
		{"Q2 budget review", "the numbers we discussed...", "work"},
		{"standup notes", "yesterday: shipped v1.2...", "work"},
		{"dinner saturday?", "the usual place at 8?", "personal"},
		{"lab results", "cholesterol slightly elevated", "medical"},
	} {
		sealed, err := typepre.EncryptBytes(alice, []byte(m.body), m.folder, nil)
		if err != nil {
			log.Fatal(err)
		}
		mailbox = append(mailbox, email{m.subject, m.folder, sealed})
	}

	// The mail server gets a proxy key for the "work" folder only, and
	// forwards what it can without ever seeing a plaintext.
	rkWork, err := alice.Delegate(corpKGC.Params(), "assistant@corp.example", "work", nil)
	if err != nil {
		log.Fatal(err)
	}
	forwarded, refused := 0, 0
	for _, m := range mailbox {
		rct, err := typepre.ReEncryptBytes(m.sealed, rkWork)
		if err != nil {
			refused++
			fmt.Printf("[%s] %q not forwarded: type mismatch %v\n",
				m.folder, m.subject, errors.Is(err, typepre.ErrTypeMismatch))
			continue
		}
		body, err := typepre.DecryptBytesReEncrypted(assistantKey, rct)
		if err != nil {
			log.Fatal(err)
		}
		forwarded++
		fmt.Printf("[%s] %q forwarded: %s\n", m.folder, m.subject, body)
	}
	fmt.Printf("forwarded %d, refused %d\n", forwarded, refused)
	// Output:
	// [work] "Q2 budget review" forwarded: the numbers we discussed...
	// [work] "standup notes" forwarded: yesterday: shipped v1.2...
	// [personal] "dinner saturday?" not forwarded: type mismatch true
	// [medical] "lab results" not forwarded: type mismatch true
	// forwarded 2, refused 2
}

// ExampleReEncrypt shows that a proxy key is scoped to its type: the same
// key cannot transform ciphertexts of another category.
func ExampleReEncrypt() {
	kgc, err := typepre.Setup("kgc", nil)
	if err != nil {
		log.Fatal(err)
	}
	alice := typepre.NewDelegator(kgc.Extract("alice@example.com"))

	m, err := typepre.RandomMessage(nil)
	if err != nil {
		log.Fatal(err)
	}
	ctWork, _ := alice.Encrypt(m, "work", nil)
	ctPersonal, _ := alice.Encrypt(m, "personal", nil)
	rkWork, _ := alice.Delegate(kgc.Params(), "assistant@example.com", "work", nil)

	_, errWork := typepre.ReEncrypt(ctWork, rkWork)
	_, errPersonal := typepre.ReEncrypt(ctPersonal, rkWork)
	fmt.Println(errWork == nil, errPersonal == nil)
	// Output: true false
}

// ExampleRecoverTypeKey demonstrates the §4.3 collusion bound: the proxy
// and the delegatee together recover exactly the per-type key — it opens
// the delegated type and nothing else.
func ExampleRecoverTypeKey() {
	kgc1, _ := typepre.Setup("kgc1", nil)
	kgc2, _ := typepre.Setup("kgc2", nil)
	alice := typepre.NewDelegator(kgc1.Extract("alice@example.com"))
	bobKey := kgc2.Extract("bob@example.com")

	rk, _ := alice.Delegate(kgc2.Params(), "bob@example.com", "emergency", nil)
	tk, _ := typepre.RecoverTypeKey(rk, bobKey)

	m, _ := typepre.RandomMessage(nil)
	ctEmergency, _ := alice.Encrypt(m, "emergency", nil)
	ctIllness, _ := alice.Encrypt(m, "illness-history", nil)

	got1, _ := typepre.DecryptWithTypeKey(tk, ctEmergency)
	got2, _ := typepre.DecryptWithTypeKey(tk, ctIllness)
	fmt.Println(got1.Equal(m), got2.Equal(m))
	// Output: true false
}
