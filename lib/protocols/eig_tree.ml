(* One dense array per level.  Level r has a slot for each label of length
   r (r distinct ids out of n), in label order: digit i of a label is its
   i-th id's rank among the ids not used before it, so level r has
   n (n-1) ... (n-r+1) slots and the children of slot p sit at
   p (n-r) ... p (n-r) + (n-r-1), in increasing id order.  A slot holds the
   entry's encoding [Pair (label_key label, v)] ready-built, or [Unit] when
   absent: encoding a tree conses existing pairs, and a relayed level is
   sent as the very pairs the tree holds.  Keys, and the entries of boolean
   values, come from shared per-level tables (below), so filling a slot
   usually allocates nothing.

   Trees are persistent.  An update writes one private copy of the level it
   fills and shares every other level; a level array, once in a returned
   tree, is never written again, so states recorded earlier stay intact. *)

type t = { n : int; levels : Value.t array array }

let rec level_size ~n r = if r = 0 then 1 else (n - r + 1) * level_size ~n (r - 1)

(* Labels are read off their keys in place: [ids] is a key's element list.
   How many of the first [i] of [ids] are below [x]; -1 when [x] is among
   them or one of them is not an int. *)
let rec below x ids i =
  if i = 0 then 0
  else
    match ids with
    | Value.Int y :: rest ->
      let b = below x rest (i - 1) in
      if y = x || b < 0 then -1 else if y < x then b + 1 else b
    | _ -> -1

(* Rank within level [r] of the label [ids] lists; -1 unless it is a
   level-[r] label of distinct in-range ids.  [rest] is the suffix of [ids]
   from its [i]-th element on, [p] the rank of the first [i]. *)
let rec rank_from ~n ~r ids p i rest =
  match rest with
  | [] -> if i = r then p else -1
  | Value.Int x :: rest when i < r && x >= 0 && x < n ->
    let b = below x ids i in
    if b < 0 then -1 else rank_from ~n ~r ids ((p * (n - i)) + x - b) (i + 1) rest
  | _ -> -1

let rank ~n ~r ids = rank_from ~n ~r ids 0 0 ids

(* The [d]-th id (counting from 0), at or after [id], that is not in [used]. *)
let rec nth_free used d id =
  if List.mem id used then nth_free used d (id + 1)
  else if d = 0 then id
  else nth_free used (d - 1) (id + 1)

(* The label at slot [c] of level [r]: the inverse of [rank]. *)
let rec unrank ~n ~r c =
  if r = 0 then []
  else
    let parent = unrank ~n ~r:(r - 1) (c / (n - r + 1)) in
    parent @ [ nth_free parent (c mod (n - r + 1)) 0 ]

let label_key label = Value.int_list label

(* --- shared label encodings ------------------------------------------------- *)

(* A slot's key is a function of (n, level, rank) alone, so one table per
   (n, level) holds every key and the two boolean entries ready-built, and
   every tree, device and run shares them instead of consing its own. *)
type labels = { keys : Value.t array; yes : Value.t array; no : Value.t array }

let build_labels ~n ~r =
  let keys = Array.init (level_size ~n r) (fun c -> label_key (unrank ~n ~r c)) in
  let with_value v = Array.map (fun k -> Value.Pair (k, v)) keys in
  { keys; yes = with_value (Value.Bool true); no = with_value (Value.Bool false) }

(* The encoding of [v] at slot [c]: only a non-boolean value allocates. *)
let entry labels c v =
  match v with
  | Value.Bool true -> labels.yes.(c)
  | Value.Bool false -> labels.no.(c)
  | v -> Value.Pair (labels.keys.(c), v)

(* Store [v] at slot [c] unless the slot is taken: first write wins. *)
let put labels slots c v =
  if slots.(c) == Value.Unit then slots.(c) <- entry labels c v

(* One broadcast's claims, parsed for one sender: claim i fills slot
   [cells.(i)] of level r+1 (-1 when the claim is dropped) with
   [entries.(i)].  Keyed on the message's physical identity plus what the
   parse reads besides it: (n, r, root), and the sender by its slot in
   the memo. *)
type parse = {
  msg : Value.t;
  pn : int;
  pr : int;
  proot : int list;
  cells : int array;
  entries : Value.t array;
}

let no_parse =
  { msg = Value.Unit; pn = 0; pr = 0; proot = []; cells = [||]; entries = [||] }

(* Tables are memoized per domain, built on first use.  Past the slot
   budget the memo is dropped and refilled; every table is a pure function
   of (n, level), so a rebuilt one is indistinguishable from the old.
   [parsed.(j)] is the last parse of a message from sender j. *)
type memo = {
  mutable tables : (int * int * labels) list;
  mutable slots : int;
  mutable parsed : parse array;
}

let slot_budget = 1 lsl 15

let new_memo () = { tables = []; slots = 0; parsed = [||] }

let domain_memo =
  (* flm-lint: allow locality/domain — the memo holds only tables of
     immutable values that are pure functions of (n, level), and parses
     that are pure functions of the message they key on and (n, level,
     sender, root); which domain built one cannot change any device's
     behaviour. *)
  let key = Domain.DLS.new_key new_memo in fun () -> Domain.DLS.get key

(* The first table in [tables] for (n, r), or a new one, remembered. *)
let rec lookup memo ~n ~r = function
  | (n', r', labels) :: rest -> if n' = n && r' = r then labels else lookup memo ~n ~r rest
  | [] ->
    let labels = build_labels ~n ~r in
    let size = Array.length labels.keys in
    if memo.slots + size > slot_budget then begin
      memo.tables <- [];
      memo.slots <- 0
    end;
    memo.tables <- (n, r, labels) :: memo.tables;
    memo.slots <- memo.slots + size;
    labels

let labels_in memo ~n ~r = lookup memo ~n ~r memo.tables
let labels ~n ~r = labels_in (domain_memo ()) ~n ~r

let checked_rank ~what ~n label =
  let p = rank ~n ~r:(List.length label) (Value.get_list (label_key label)) in
  if p < 0 then invalid_arg (what ^ ": label with an out-of-range or repeated id");
  p

let empty ~n = { n; levels = [||] }
let get t r p = if r < Array.length t.levels then t.levels.(r).(p) else Value.Unit

(* A private copy of level [r], to fill and then publish with [with_level]. *)
let fresh_level t r =
  if r < Array.length t.levels then Array.copy t.levels.(r)
  else Array.make (level_size ~n:t.n r) Value.Unit

(* [t] with [slots] as its level [r], levels between its depth and [r]
   empty.  The levels array is built once, [slots] in place. *)
let with_level t r slots =
  let depth = Array.length t.levels in
  let levels =
    Array.init (max depth (r + 1)) (fun i ->
        if i = r then slots
        else if i < depth then t.levels.(i)
        else Array.make (level_size ~n:t.n i) Value.Unit)
  in
  { t with levels }

let find t label =
  match get t (List.length label) (checked_rank ~what:"Eig_tree.find" ~n:t.n label) with
  | Value.Pair (_, v) -> Some v
  | _ -> None

(* First write wins; later claims for the same label are ignored — the
   relay discipline depends on this. *)
let add t label v =
  let r = List.length label in
  let p = checked_rank ~what:"Eig_tree.add" ~n:t.n label in
  if get t r p != Value.Unit then t
  else begin
    let slots = fresh_level t r in
    slots.(p) <- entry (labels ~n:t.n ~r) p v;
    with_level t r slots
  end

(* Pre-order — a label before its extensions, siblings in increasing id
   order, which is the sorted-assoc order — walked back to front so the
   list is built by consing. *)
let rec walk t r p acc =
  let acc =
    if r + 1 = Array.length t.levels then acc else children t r p (t.n - r - 1) acc
  in
  match t.levels.(r).(p) with Value.Unit -> acc | entry -> entry :: acc

and children t r p d acc =
  if d < 0 then acc
  else children t r p (d - 1) (walk t (r + 1) ((p * (t.n - r)) + d) acc)

let to_value t =
  Value.list (if Array.length t.levels = 0 then [] else walk t 0 0 [])

let level t r =
  if r >= Array.length t.levels then []
  else
    Array.fold_right
      (fun entry acc ->
        match entry with
        | Value.Pair (key, v) -> (Value.get_int_list key, v) :: acc
        | _ -> acc)
      t.levels.(r) []

(* Boyer–Moore over [votes.(0 .. k-1)]: only a strict-majority value can
   survive as the candidate, and one counting pass confirms it. *)
let majority_in ~default votes k =
  let candidate = ref default and lead = ref 0 in
  for i = 0 to k - 1 do
    let v = votes.(i) in
    if !lead = 0 then begin
      candidate := v;
      lead := 1
    end
    else if Value.equal !candidate v then incr lead
    else decr lead
  done;
  let count = ref 0 in
  for i = 0 to k - 1 do
    if Value.equal !candidate votes.(i) then incr count
  done;
  if 2 * !count > k then !candidate else default

let majority ~default votes =
  let votes = Array.of_list votes in
  majority_in ~default votes (Array.length votes)

(* Depth [r] resolves its n-r children into [scratch.(r)]; a child only
   writes deeper rows, so one row per depth serves the whole recursion. *)
let resolve_values ~f ~default t r p =
  let n = t.n in
  let scratch = Array.init (f + 1) (fun r -> Array.make (max 0 (n - r)) Value.Unit) in
  let rec go r p =
    if r > f then match get t r p with Value.Pair (_, v) -> v | _ -> default
    else begin
      let votes = scratch.(r) and k = n - r in
      for d = 0 to k - 1 do
        votes.(d) <- go (r + 1) ((p * k) + d)
      done;
      majority_in ~default votes k
    end
  in
  go r p

(* The same recursion over boolean codes (1 true, 0 false), read off the
   leaf level [leaves] in place; [dflt] is the default's code.  -1 when a
   leaf under slot [p] of depth [r] holds a non-boolean.  A strict
   majority of codes, else [dflt], is what Boyer–Moore returns on the
   values. *)
let rec bool_vote leaves ~f ~n ~dflt r p =
  if r > f then
    match leaves.(p) with
    | Value.Pair (_, Value.Bool b) -> Bool.to_int b
    | Value.Unit -> dflt
    | _ -> -1
  else bool_count leaves ~f ~n ~dflt r (p * (n - r)) 0 0

and bool_count leaves ~f ~n ~dflt r first d trues =
  let k = n - r in
  if d = k then
    if 2 * trues > k then 1 else if 2 * (k - trues) > k then 0 else dflt
  else
    let c = bool_vote leaves ~f ~n ~dflt (r + 1) (first + d) in
    if c < 0 then -1
    else bool_count leaves ~f ~n ~dflt r first (d + 1) (trues + c)

(* Boolean trees vote in ints, with no allocation in the vote; anything
   else — a non-boolean default or leaf, no leaf level, f+1 > n — takes
   the general path. *)
let resolve ~f ~default t root =
  let r = List.length root in
  let p = checked_rank ~what:"Eig_tree.resolve" ~n:t.n root in
  let code =
    match default with
    | Value.Bool b when r <= f && f < t.n && f + 1 < Array.length t.levels ->
      bool_vote t.levels.(f + 1) ~f ~n:t.n ~dflt:(Bool.to_int b) r p
    | _ -> -1
  in
  match code with
  | 1 -> Value.Bool true
  | 0 -> Value.Bool false
  | _ -> resolve_values ~f ~default t r p

(* --- the relay device ------------------------------------------------------- *)

(* Whether [sigma . j] ([ids] lists [sigma]) has [root] as a prefix. *)
let rec under root ids j =
  match root, ids with
  | [], _ -> true
  | g :: root, Value.Int x :: ids -> g = x && under root ids j
  | [ g ], [] -> g = j
  | _ -> false

(* Claims from sender [j] on level-[r] labels, parsed into [cells] and
   [entries] (level r+1) from index [i] on. *)
let rec parse_into ~n ~r ~root ~labels j cells entries i = function
  | claim :: claims ->
    (match claim with
    | Value.Pair (Value.List ids, v) ->
      let p = rank ~n ~r ids and b = below j ids r in
      if p >= 0 && b >= 0 && under root ids j then begin
        let c = (p * (n - r)) + j - b in
        cells.(i) <- c;
        entries.(i) <- entry labels c v
      end
    | _ -> ());
    parse_into ~n ~r ~root ~labels j cells entries (i + 1) claims
  | [] -> ()

(* The parse of [msg] (the list [claims]) from sender [j].  A relay puts
   one physical message on all its ports and the arena delivers it as is,
   so all but the first receiver find it in [memo.parsed.(j)].  A hit
   returns arrays equal to what parsing again would build, so the cache is
   invisible to the device: its step stays a function of its state and
   inbox, and Locality holds. *)
let parsed memo ~n ~r ~root ~labels j msg claims =
  if j >= Array.length memo.parsed then begin
    let grown = Array.make (j + 1) no_parse in
    Array.blit memo.parsed 0 grown 0 (Array.length memo.parsed);
    memo.parsed <- grown
  end;
  let last = memo.parsed.(j) in
  if last.msg == msg && last.pn = n && last.pr = r
     && List.equal Int.equal last.proot root
  then last
  else begin
    let k = List.length claims in
    let cells = Array.make k (-1) and entries = Array.make k Value.Unit in
    parse_into ~n ~r ~root ~labels j cells entries 0 claims;
    let p = { msg; pn = n; pr = r; proot = root; cells; entries } in
    memo.parsed.(j) <- p;
    p
  end

(* Step [s] (1 <= s <= f+1): a claim (sigma, v) from sender j on a
   well-formed level-(s-1) label without j becomes val(sigma . j) = v, then
   my own level-(s-1) entries are relayed to myself as sigma . me.  All of
   it lands in one fresh copy of level s, claim by claim in port order;
   first write wins. *)
let relay_round t ~me ~step:s ~root ~senders inbox =
  let n = t.n and r = s - 1 in
  let memo = domain_memo () in
  let labels = labels_in memo ~n ~r:s in
  let slots = fresh_level t s in
  for port = 0 to Array.length inbox - 1 do
    match inbox.(port) with
    | Some (Value.List claims as msg) ->
      let { cells; entries; _ } =
        parsed memo ~n ~r ~root ~labels senders.(port) msg claims
      in
      for i = 0 to Array.length cells - 1 do
        let c = cells.(i) in
        if c >= 0 && slots.(c) == Value.Unit then slots.(c) <- entries.(i)
      done
    | _ -> ()
  done;
  if r < Array.length t.levels then begin
    let own = t.levels.(r) in
    for p = 0 to Array.length own - 1 do
      match own.(p) with
      | Value.Pair (Value.List ids, v) ->
        let b = below me ids r in
        if b >= 0 then put labels slots ((p * (n - r)) + me - b) v
      | _ -> ()
    done
  end;
  with_level t s slots

(* The entries of [level] from slot [i] down whose label avoids [me],
   consed onto [acc] in label order. *)
let rec avoiding ~me ~r level i acc =
  if i < 0 then acc
  else
    let acc =
      match level.(i) with
      | Value.Pair (Value.List ids, _) as e when below me ids r >= 0 -> e :: acc
      | _ -> acc
    in
    avoiding ~me ~r level (i - 1) acc

(* The state holds the tree itself, so a step neither parses nor encodes
   one; [project] builds the encoded triple (step, decision, tree) only
   when a trace reader asks.  The device keeps nothing between steps, so one device can serve
   any number of runs, on any domains, at once. *)
type state = { step : int; decided : Value.t option; tree : t }

let project { step; decided; tree } =
  Value.triple (Value.int step)
    (Option.fold decided ~none:Value.unit ~some:(Value.tag "d"))
    (to_value tree)

let relay_device ~name ~n ~f ~me ~default ~init ~root =
  let senders = Array.of_list (List.filter (( <> ) me) (List.init n Fun.id)) in
  let arity = n - 1 in
  Device.Device
    {
      Device.name;
      arity;
      init =
        (fun ~input ->
          let decided, seed = init input in
          let tree = Option.fold seed ~none:(empty ~n) ~some:(add (empty ~n) []) in
          { step = 0; decided; tree });
      step =
        (fun ~state:{ step; decided; tree } ~round:_ ~inbox ->
          let tree =
            if step = 0 || step > f + 1 then tree
            else relay_round tree ~me ~step ~root ~senders inbox
          in
          let decided =
            if step = f + 1 && Option.is_none decided then
              Some (resolve ~f ~default tree root)
            else decided
          in
          (* Broadcast the level-[step] entries whose label avoids me, in
             label order; with nothing at the empty label, step 0 is
             silent. *)
          let payload =
            if step > f || step >= Array.length tree.levels then []
            else
              let level = tree.levels.(step) in
              avoiding ~me ~r:step level (Array.length level - 1) []
          in
          let sends =
            if step > f || (step = 0 && payload = []) then Array.make arity None
            else Array.make arity (Some (Value.list payload))
          in
          { step = step + 1; decided; tree }, sends);
      output = (fun state -> state.decided);
      project;
    }
