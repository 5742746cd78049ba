type congruence = { residue : Bignum.t; modulus : Bignum.t }

let make ~residue ~modulus =
  if Bignum.sign modulus <= 0 then invalid_arg "Gcrt.make: modulus must be positive";
  { residue = Bignum.erem residue modulus; modulus }

let make_int ~residue ~modulus = make ~residue:(Bignum.of_int residue) ~modulus:(Bignum.of_int modulus)

let compatible a b =
  let g = Bignum.gcd a.modulus b.modulus in
  Bignum.is_zero (Bignum.erem (Bignum.sub a.residue b.residue) g)

let merge a b =
  let open Bignum in
  let g, s, _ = egcd a.modulus b.modulus in
  let diff = sub b.residue a.residue in
  let q, r = divmod diff g in
  if not (is_zero r) then None
  else begin
    (* x = a.residue + a.modulus * (q * s mod (b.modulus / g)) solves both:
       s * a.modulus = g (mod b.modulus), so the step is diff (mod b.modulus). *)
    let m_over_g = div b.modulus g in
    let k = erem (mul q s) m_over_g in
    let modulus = mul a.modulus m_over_g in
    let residue = erem (add a.residue (mul a.modulus k)) modulus in
    Some { residue; modulus }
  end

let trivial = { residue = Bignum.zero; modulus = Bignum.one }

let merge_all congruences =
  List.fold_left
    (fun acc c ->
      match acc with
      | None -> None
      | Some merged -> merge merged c)
    (Some trivial) congruences

let solve congruences =
  match merge_all congruences with
  | None -> None
  | Some { residue; _ } -> Some residue
