type report = {
  candidates : int;
  distinct : int;
  after_vote : int;
  dropped_by_greedy : int;
  used : Statement.t list;
  covered : bool;
  value : Bignum.t option;
}

(* ---- vote on W mod p_i (first filtering step of §3.3) ---- *)

(* For each base prime, tally multiplicity-weighted votes per residue and
   declare a winner when first place strictly exceeds twice second place. *)
let vote_winners (params : Params.t) counted =
  let r = Array.length params.primes in
  let tallies = Array.init r (fun _ -> Hashtbl.create 16) in
  let add_vote k residue weight =
    let tbl = tallies.(k) in
    Hashtbl.replace tbl residue (weight + Option.value ~default:0 (Hashtbl.find_opt tbl residue))
  in
  List.iter
    (fun ((s : Statement.t), weight) ->
      add_vote s.i (s.x mod params.primes.(s.i)) weight;
      add_vote s.j (s.x mod params.primes.(s.j)) weight)
    counted;
  Array.map
    (fun tbl ->
      let first = ref (-1, 0) and second = ref 0 in
      Hashtbl.iter
        (fun residue count ->
          let _, best = !first in
          if count > best then begin
            second := best;
            first := (residue, count)
          end
          else if count > !second then second := count)
        tbl;
      let residue, best = !first in
      if best > 2 * !second && best > 0 then Some residue else None)
    tallies

let passes_vote (params : Params.t) winners (s : Statement.t) =
  let ok k =
    match winners.(k) with
    | None -> true
    | Some residue -> s.x mod params.primes.(k) = residue
  in
  ok s.i && ok s.j

(* ---- graph phase ---- *)

let greedy_graph_phase params statements =
  let v = Array.of_list statements in
  let n = Array.length v in
  let alive = Array.make n true in
  let in_u = Array.make n false in
  let inconsistent a b = not (Statement.consistent params v.(a) v.(b)) in
  let h_adjacent a b = Statement.agreeing_prime params v.(a) v.(b) <> None in
  let g_has_edges () =
    let found = ref false in
    (try
       for a = 0 to n - 1 do
         if alive.(a) then
           for b = a + 1 to n - 1 do
             if alive.(b) && inconsistent a b then begin
               found := true;
               raise Exit
             end
           done
       done
     with Exit -> ());
    !found
  in
  let h_degree a =
    let d = ref 0 in
    for b = 0 to n - 1 do
      if b <> a && alive.(b) && h_adjacent a b then incr d
    done;
    !d
  in
  let dropped = ref 0 in
  let continue = ref (g_has_edges ()) in
  while !continue do
    (* v := vertex of maximum H-degree among alive, not yet presumed true *)
    let best = ref (-1) and best_deg = ref (-1) in
    for a = 0 to n - 1 do
      if alive.(a) && not in_u.(a) then begin
        let d = h_degree a in
        if d > !best_deg then begin
          best := a;
          best_deg := d
        end
      end
    done;
    if !best < 0 then continue := false (* defensive; cannot happen while G has edges *)
    else begin
      let chosen = !best in
      in_u.(chosen) <- true;
      for b = 0 to n - 1 do
        if b <> chosen && alive.(b) && inconsistent chosen b then begin
          alive.(b) <- false;
          incr dropped
        end
      done;
      continue := g_has_edges ()
    end
  done;
  let survivors = ref [] in
  for a = n - 1 downto 0 do
    if alive.(a) then survivors := v.(a) :: !survivors
  done;
  (!survivors, !dropped)

(* ---- full pipeline ---- *)

let count_multiplicity statements =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun (s : Statement.t) ->
      let key = (s.i, s.j, s.x) in
      Hashtbl.replace tbl key (1 + Option.value ~default:0 (Hashtbl.find_opt tbl key)))
    statements;
  Hashtbl.fold (fun (i, j, x) weight acc -> ({ Statement.i; j; x }, weight) :: acc) tbl []

let recover ?(cap = 3000) ?(vote_cap = 3) (params : Params.t) statements =
  let candidates = List.length statements in
  let counted = count_multiplicity statements in
  let distinct = List.length counted in
  (* Cap per-statement vote weight: a statement repeated by a hot loop is
     one piece of evidence, not hundreds — otherwise correlated garbage
     from a frequently re-emitted region can outvote the truth, which is
     spread across many distinct statements. *)
  let capped_votes = List.map (fun (s, w) -> (s, min w vote_cap)) counted in
  let winners = vote_winners params capped_votes in
  let voted = List.filter (fun (s, _) -> passes_vote params winners s) counted in
  let after_vote = List.length voted in
  let capped =
    if after_vote <= cap then voted
    else begin
      let sorted = List.sort (fun (_, w1) (_, w2) -> Stdlib.compare w2 w1) voted in
      List.filteri (fun idx _ -> idx < cap) sorted
    end
  in
  let used, dropped_by_greedy = greedy_graph_phase params (List.map fst capped) in
  let r = Array.length params.primes in
  let mentioned = Array.make r false in
  List.iter
    (fun (s : Statement.t) ->
      mentioned.(s.i) <- true;
      mentioned.(s.j) <- true)
    used;
  let covered = Array.for_all Fun.id mentioned in
  let value =
    if not covered then None
    else Numtheory.Gcrt.solve (List.map (Statement.to_congruence params) used)
  in
  { candidates; distinct; after_vote; dropped_by_greedy; used; covered; value }

let recover_value ?cap ?vote_cap params statements = (recover ?cap ?vote_cap params statements).value

(* ---- degraded-mode accounting (§3.2's error-tolerance claim, measured) ---- *)

type margin = {
  pieces_used : int;
  primes_covered : int;
  primes_total : int;
  redundancy_margin : int;
}

let margin_of_report (params : Params.t) report =
  let r = Array.length params.primes in
  let support = Array.make r 0 in
  List.iter
    (fun (s : Statement.t) ->
      support.(s.i) <- support.(s.i) + 1;
      support.(s.j) <- support.(s.j) + 1)
    report.used;
  let covered = Array.fold_left (fun acc c -> acc + if c > 0 then 1 else 0) 0 support in
  let min_support = Array.fold_left min max_int support in
  {
    pieces_used = List.length report.used;
    primes_covered = covered;
    primes_total = r;
    redundancy_margin = (if report.value = None || r = 0 then 0 else max 0 (min_support - 1));
  }

let confidence params report =
  let m = margin_of_report params report in
  if m.primes_total = 0 then 0.0
  else begin
    let coverage = float_of_int m.primes_covered /. float_of_int m.primes_total in
    let consistency =
      let total = m.pieces_used + report.dropped_by_greedy in
      if total = 0 then 0.0 else float_of_int m.pieces_used /. float_of_int total
    in
    match report.value with
    | Some _ ->
        (* recovered: [0.5, 1), growing with the redundancy margin — each
           extra statement of support on the weakest prime halves the
           remaining doubt *)
        0.5 +. (0.5 *. (1.0 -. (0.5 ** float_of_int m.redundancy_margin)))
    | None ->
        (* partial evidence only: strictly below every recovered score *)
        0.45 *. coverage *. consistency
  end

let harvest ?dedup_overlaps params bits ~strides =
  let h = Harvester.create ?dedup_overlaps params ~strides in
  Util.Bitstring.iter (Harvester.push h) bits;
  Harvester.statements h

let recover_from_bitstring ?cap ?vote_cap ?dedup_overlaps ?(strides = [ 1; 2 ]) params bits =
  recover ?cap ?vote_cap params (harvest ?dedup_overlaps params bits ~strides)
