type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* --- printing -------------------------------------------------------------- *)

(* The bytes JSON requires escaped inside a string. *)
let needs_escape c = c = '"' || c = '\\' || Char.code c < 0x20

(* [s] between quotes, escaped.  A string with nothing to escape, which is
   nearly every string a document holds, is appended as it is. *)
let add_quoted buf s =
  Buffer.add_char buf '"';
  if not (String.exists needs_escape s) then Buffer.add_string buf s
  else
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\r' -> Buffer.add_string buf "\\r"
        | '\t' -> Buffer.add_string buf "\\t"
        | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s;
  Buffer.add_char buf '"'

(* Quantize to microsecond fixed-point.  Timings quantized at construction
   print as short fixed-point literals below instead of 17-significant-digit
   artifacts of the measurement's binary representation. *)
let quantize_us f =
  if Float.is_nan f || Float.abs f >= 1e9 then f
  else Float.round (f *. 1e6) /. 1e6

let float_literal f =
  (* JSON has no NaN or infinity: a non-finite float prints as [null],
     which every reader takes for a missing figure.  A finite one prefers
     microsecond fixed-point when that reads back as exactly this float
     (true for values quantized with [quantize_us]); otherwise %.17g, which
     round-trips every float.  Integral values still need a marker so they
     read back as JSON numbers with the same type. *)
  if not (Float.is_finite f) then "null"
  else
    let s =
      let fixed = Printf.sprintf "%.6f" f in
      if Float.abs f < 1e9 && float_of_string fixed = f then fixed
      else Printf.sprintf "%.17g" f
    in
    if String.exists (fun c -> c = '.' || c = 'e') s then s else s ^ ".0"

(* Indentation is copied out of one shared run of spaces. *)
let spaces = String.make 64 ' '

let rec pad buf n =
  if n <= String.length spaces then Buffer.add_substring buf spaces 0 n
  else begin
    Buffer.add_string buf spaces;
    pad buf (n - String.length spaces)
  end

let rec pp buf indent v =
  match v with
  | Null -> Buffer.add_string buf "null"
  | Bool true -> Buffer.add_string buf "true"
  | Bool false -> Buffer.add_string buf "false"
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f -> Buffer.add_string buf (float_literal f)
  | String s -> add_quoted buf s
  | List [] -> Buffer.add_string buf "[]"
  | List (v :: vs) ->
    Buffer.add_string buf "[\n";
    item buf (indent + 2) v;
    items buf (indent + 2) vs;
    Buffer.add_char buf '\n';
    pad buf indent;
    Buffer.add_char buf ']'
  | Obj [] -> Buffer.add_string buf "{}"
  | Obj (kv :: kvs) ->
    Buffer.add_string buf "{\n";
    field buf (indent + 2) kv;
    fields buf (indent + 2) kvs;
    Buffer.add_char buf '\n';
    pad buf indent;
    Buffer.add_char buf '}'

and item buf indent v =
  pad buf indent;
  pp buf indent v

and items buf indent = function
  | [] -> ()
  | v :: vs ->
    Buffer.add_string buf ",\n";
    item buf indent v;
    items buf indent vs

and field buf indent (k, v) =
  pad buf indent;
  add_quoted buf k;
  Buffer.add_string buf ": ";
  pp buf indent v

and fields buf indent = function
  | [] -> ()
  | kv :: kvs ->
    Buffer.add_string buf ",\n";
    field buf indent kv;
    fields buf indent kvs

let to_string v =
  let buf = Buffer.create 1024 in
  pp buf 0 v;
  Buffer.add_char buf '\n';
  Buffer.contents buf

let write_file ~path v =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_string v))

(* --- parsing --------------------------------------------------------------- *)

exception Parse_error of string

(* Containers may nest this deep.  The parser recurses once per level, so
   the bound keeps a hostile document from growing the stack without
   limit; the deepest document the project writes (a lint summary cache)
   nests 7 levels. *)
let max_depth = 512

let is_number_byte = function
  | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
  | _ -> false

let hex_digit = function
  | '0' .. '9' as c -> Char.code c - Char.code '0'
  | 'a' .. 'f' as c -> Char.code c - Char.code 'a' + 10
  | 'A' .. 'F' as c -> Char.code c - Char.code 'A' + 10
  | _ -> -1

(* [word.[j..]] occurs in [s] at [i + j]; the caller checks the bounds. *)
let rec matches_at s i word j =
  j = String.length word
  || (s.[i + j] = word.[j] && matches_at s i word (j + 1))

(* The cursor is one [int ref]; every look-ahead reads [s] at it directly,
   after a bounds test, so looking ahead allocates nothing. *)
let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg !pos)) in
  let at c = !pos < n && s.[!pos] = c in
  let advance () = incr pos in
  let skip_ws () =
    while
      !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    do
      advance ()
    done
  in
  let expect c =
    if at c then advance () else fail (Printf.sprintf "expected '%c'" c)
  in
  let literal word v =
    let len = String.length word in
    if !pos + len <= n && matches_at s !pos word 0 then begin
      pos := !pos + len;
      v
    end
    else fail (Printf.sprintf "expected %s" word)
  in
  (* A [\u] escape: exactly four hex digits. *)
  let unicode_escape () =
    if !pos + 4 > n then fail "truncated \\u escape";
    let code = ref 0 in
    for i = !pos to !pos + 3 do
      let d = hex_digit s.[i] in
      if d < 0 then fail "bad \\u escape";
      code := (!code lsl 4) lor d
    done;
    pos := !pos + 4;
    !code
  in
  (* The rest of a string from its first backslash, through [buf]. *)
  let rec escaped buf =
    if !pos >= n then fail "unterminated string"
    else
      match s.[!pos] with
      | '"' -> advance ()
      | '\\' ->
        advance ();
        (if !pos >= n then fail "unterminated escape"
         else
           match s.[!pos] with
           | '"' -> Buffer.add_char buf '"'; advance ()
           | '\\' -> Buffer.add_char buf '\\'; advance ()
           | '/' -> Buffer.add_char buf '/'; advance ()
           | 'b' -> Buffer.add_char buf '\b'; advance ()
           | 'f' -> Buffer.add_char buf '\012'; advance ()
           | 'n' -> Buffer.add_char buf '\n'; advance ()
           | 'r' -> Buffer.add_char buf '\r'; advance ()
           | 't' -> Buffer.add_char buf '\t'; advance ()
           | 'u' ->
             advance ();
             let code = unicode_escape () in
             if code < 0x80 then Buffer.add_char buf (Char.chr code)
             else Buffer.add_char buf '?'
           | c -> fail (Printf.sprintf "bad escape '\\%c'" c));
        escaped buf
      | c ->
        Buffer.add_char buf c;
        advance ();
        escaped buf
  in
  (* A string without a backslash is one [String.sub]; the first backslash
     hands the rest to [escaped]. *)
  let parse_string () =
    expect '"';
    let start = !pos in
    while !pos < n && s.[!pos] <> '"' && s.[!pos] <> '\\' do
      advance ()
    done;
    if at '"' then begin
      advance ();
      String.sub s start (!pos - 1 - start)
    end
    else begin
      let buf = Buffer.create (!pos - start + 16) in
      Buffer.add_substring buf s start (!pos - start);
      escaped buf;
      Buffer.contents buf
    end
  in
  let parse_number () =
    let start = !pos in
    while !pos < n && is_number_byte s.[!pos] do
      advance ()
    done;
    let lit = String.sub s start (!pos - start) in
    match int_of_string_opt lit with
    | Some i -> Int i
    | None -> (
      match float_of_string_opt lit with
      | Some f -> Float f
      | None -> fail (Printf.sprintf "bad number %S" lit))
  in
  let rec parse_value depth =
    skip_ws ();
    if !pos >= n then fail "unexpected end of input";
    match s.[!pos] with
    | 'n' -> literal "null" Null
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | '"' -> String (parse_string ())
    | '-' | '0' .. '9' -> parse_number ()
    | '[' | '{' when depth >= max_depth -> fail "nesting too deep"
    | '[' ->
      advance ();
      skip_ws ();
      if at ']' then begin
        advance ();
        List []
      end
      else begin
        let items = ref [ parse_value (depth + 1) ] in
        skip_ws ();
        while at ',' do
          advance ();
          items := parse_value (depth + 1) :: !items;
          skip_ws ()
        done;
        expect ']';
        List (List.rev !items)
      end
    | '{' ->
      advance ();
      skip_ws ();
      if at '}' then begin
        advance ();
        Obj []
      end
      else begin
        let fields = ref [ parse_field depth ] in
        skip_ws ();
        while at ',' do
          advance ();
          fields := parse_field depth :: !fields;
          skip_ws ()
        done;
        expect '}';
        Obj (List.rev !fields)
      end
    | c -> fail (Printf.sprintf "unexpected character '%c'" c)
  and parse_field depth =
    skip_ws ();
    let k = parse_string () in
    skip_ws ();
    expect ':';
    let v = parse_value (depth + 1) in
    k, v
  in
  match
    let v = parse_value 0 in
    skip_ws ();
    if !pos <> n then fail "trailing garbage";
    v
  with
  | v -> Ok v
  | exception Parse_error msg -> Error msg

(* --- accessors ------------------------------------------------------------- *)

let member k = function
  | Obj fields -> List.assoc_opt k fields
  | _ -> None

let to_int_opt = function Int i -> Some i | _ -> None

let to_float_opt = function
  | Float f -> Some f
  | Int i -> Some (float_of_int i)
  | _ -> None

let to_string_opt = function String s -> Some s | _ -> None
let to_list_opt = function List vs -> Some vs | _ -> None

(* --- strict readers -------------------------------------------------------- *)

let ( let* ) = Result.bind

module Read = struct
  type 'e obj = { fail : string -> 'e; kvs : (string * t) list }

  let obj ~fail = function
    | Obj kvs -> Ok { fail; kvs }
    | _ -> Error (fail "expected an object")

  let fail o detail = Error (o.fail detail)

  let only o allowed =
    match List.find_opt (fun (k, _) -> not (List.mem k allowed)) o.kvs with
    | Some (k, _) -> fail o (Printf.sprintf "unknown field %S" k)
    | None -> Ok ()

  let missing o k = fail o (Printf.sprintf "missing field %S" k)
  let wrong o k what = fail o (Printf.sprintf "field %S must be %s" k what)

  let field o k =
    match List.assoc_opt k o.kvs with Some v -> Ok v | None -> missing o k

  (* A required field read through [conv]; [what] names the type it needs. *)
  let typed what conv o k =
    match List.assoc_opt k o.kvs with
    | Some v -> ( match conv v with Some x -> Ok x | None -> wrong o k what)
    | None -> missing o k

  let int o k = typed "an integer" to_int_opt o k
  let number o k = typed "a number" to_float_opt o k
  let string o k = typed "a string" to_string_opt o k
  let list o k = typed "a list" to_list_opt o k
  let bool o k = typed "a boolean" (function Bool b -> Some b | _ -> None) o k

  let bool_or_null o k =
    typed "a boolean or null"
      (function Bool b -> Some (Some b) | Null -> Some None | _ -> None)
      o k

  let int_opt o k =
    match List.assoc_opt k o.kvs with
    | Some (Int i) -> Ok (Some i)
    | Some _ -> wrong o k "an integer"
    | None -> Ok None

  let enum o k of_string =
    let* s = string o k in
    match of_string s with
    | Some v -> Ok v
    | None -> fail o (Printf.sprintf "field %S: unknown value %S" k s)

  let entries o k what conv =
    let* vs = list o k in
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | v :: vs -> (
        match conv v with
        | Some x -> go (x :: acc) vs
        | None -> fail o (Printf.sprintf "%s entries must be %s" k what))
    in
    go [] vs

  let ints o k = entries o k "integers" to_int_opt
  let strings o k = entries o k "strings" to_string_opt

  let all rs =
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | Ok x :: rs -> go (x :: acc) rs
      | Error e :: _ -> Error e
    in
    go [] rs
end

(* --- the bench-record schema ----------------------------------------------- *)

let schema_version = 1

let run_record ~label ~jobs ~wall_seconds ?cache_hit_rate ?(extra = []) () =
  Obj
    ([ "label", String label;
       "jobs", Int jobs;
       "wall_seconds", Float wall_seconds;
     ]
    @ (match cache_hit_rate with
      | Some r -> [ "cache_hit_rate", Float r ]
      | None -> [])
    @ extra)

let bench_record ~experiment ~config ?(derived = []) ~runs () =
  Obj
    ([ "experiment", String experiment;
       "schema_version", Int schema_version;
       "config", Obj config;
       "runs", List runs;
     ]
    @ match derived with [] -> [] | d -> [ "derived", Obj d ])

let validate v =
  let* o = Read.obj ~fail:(fun d -> "bench record: " ^ d) v in
  let* _ = Read.string o "experiment" in
  let* _ = Read.int o "schema_version" in
  let* config = Read.field o "config" in
  let* _ = Read.obj ~fail:(fun d -> "config: " ^ d) config in
  let* runs = Read.list o "runs" in
  if runs = [] then Read.fail o "runs: at least one run required"
  else
    List.fold_left
      (fun acc run ->
        let* () = acc in
        let* r = Read.obj ~fail:(fun d -> "run: " ^ d) run in
        let* _ = Read.string r "label" in
        let* _ = Read.int r "jobs" in
        let* s = Read.number r "wall_seconds" in
        if s < 0.0 then Read.fail r "field \"wall_seconds\" must not be negative" else Ok ())
      (Ok ()) runs
