(** The Generalized Chinese Remainder Theorem.

    Recombining the watermark (step D of Figure 4 in the paper) merges a set
    of congruences [W = x_k mod m_k] whose moduli are products of pairwise
    relatively prime base primes and therefore need not themselves be
    coprime.  Two congruences are compatible exactly when their residues
    agree modulo the gcd of their moduli; a compatible pair merges into a
    single congruence modulo the lcm. *)

type congruence = { residue : Bignum.t; modulus : Bignum.t }
(** A statement [W = residue (mod modulus)] with [0 <= residue < modulus]. *)

val make : residue:Bignum.t -> modulus:Bignum.t -> congruence
(** Normalizes the residue into [\[0, modulus)]. Raises [Invalid_argument]
    if the modulus is not positive. *)

val make_int : residue:int -> modulus:int -> congruence

val compatible : congruence -> congruence -> bool
(** Whether the two congruences admit a common solution. *)

val merge : congruence -> congruence -> congruence option
(** [merge a b] is the congruence modulo [lcm a.modulus b.modulus] implied
    by both, or [None] when they are incompatible. *)

val solve : congruence list -> Bignum.t option
(** The smallest nonnegative solution of the system, if consistent. *)
